package core

import (
	"testing"

	"transparentedge/internal/cluster"
	"transparentedge/internal/sim"
	"transparentedge/internal/spec"
)

// fakeCluster implements cluster.Cluster for scheduler tests.
type fakeCluster struct {
	name    string
	running bool
}

func (f *fakeCluster) Name() string                            { return f.name }
func (f *fakeCluster) HasImages(*spec.Annotated) bool          { return true }
func (f *fakeCluster) Pull(*sim.Proc, *spec.Annotated) error   { return nil }
func (f *fakeCluster) Exists(string) bool                      { return true }
func (f *fakeCluster) Running(string) bool                     { return f.running }
func (f *fakeCluster) Create(*sim.Proc, *spec.Annotated) error { return nil }
func (f *fakeCluster) ScaleUp(*sim.Proc, string) (cluster.Instance, error) {
	return cluster.Instance{}, nil
}
func (f *fakeCluster) ScaleDown(*sim.Proc, string) error { return nil }
func (f *fakeCluster) Remove(*sim.Proc, string) error    { return nil }
func (f *fakeCluster) Endpoint(string) (cluster.Instance, bool) {
	return cluster.Instance{}, f.running
}
func (f *fakeCluster) Services() []string { return nil }

func stateOf(infos ...ClusterInfo) State {
	return State{Clusters: infos}
}

func info(name, kind string, dist int, running bool) ClusterInfo {
	return ClusterInfo{
		Cluster:  &fakeCluster{name: name, running: running},
		Kind:     kind,
		Distance: dist,
		Running:  running,
		Exists:   true,
	}
}

func TestProximityNearestRunning(t *testing.T) {
	st := stateOf(info("near", "docker", 0, true), info("far", "docker", 1, true))
	ch := ProximityScheduler{}.Choose(st)
	if ch.Fast == nil || ch.Fast.Cluster.Name() != "near" || ch.Best != nil {
		t.Fatalf("choice = %+v", ch)
	}
}

func TestProximityWithoutWaitingWhenFartherRuns(t *testing.T) {
	st := stateOf(info("near", "docker", 0, false), info("far", "docker", 1, true))
	ch := ProximityScheduler{}.Choose(st)
	if ch.Fast == nil || ch.Fast.Cluster.Name() != "far" {
		t.Fatalf("fast = %+v, want far (running)", ch.Fast)
	}
	if ch.Best == nil || ch.Best.Cluster.Name() != "near" {
		t.Fatalf("best = %+v, want near (deploy in background)", ch.Best)
	}
}

func TestProximityWaitsWhenNothingRuns(t *testing.T) {
	st := stateOf(info("near", "docker", 0, false), info("far", "docker", 1, false))
	ch := ProximityScheduler{}.Choose(st)
	if ch.Fast == nil || ch.Fast.Cluster.Name() != "near" || ch.Best != nil {
		t.Fatalf("choice = %+v, want wait on near", ch)
	}
}

func TestProximityEmptyState(t *testing.T) {
	ch := ProximityScheduler{}.Choose(stateOf())
	if ch.Fast != nil || ch.Best != nil {
		t.Fatalf("choice = %+v, want empty (cloud)", ch)
	}
}

func TestWaitNearestAlwaysNearest(t *testing.T) {
	st := stateOf(info("near", "docker", 0, false), info("far", "docker", 1, true))
	ch := WaitNearestScheduler{}.Choose(st)
	if ch.Fast == nil || ch.Fast.Cluster.Name() != "near" || ch.Best != nil {
		t.Fatalf("choice = %+v", ch)
	}
}

func TestNoWaitGoesToCloudWhenNothingRuns(t *testing.T) {
	st := stateOf(info("near", "docker", 0, false))
	ch := NoWaitScheduler{}.Choose(st)
	if ch.Fast != nil {
		t.Fatalf("fast = %+v, want nil (cloud)", ch.Fast)
	}
	if ch.Best == nil || ch.Best.Cluster.Name() != "near" {
		t.Fatalf("best = %+v, want near deployed in background", ch.Best)
	}
}

func TestNoWaitUsesRunningInstance(t *testing.T) {
	st := stateOf(info("near", "docker", 0, false), info("far", "docker", 1, true))
	ch := NoWaitScheduler{}.Choose(st)
	if ch.Fast == nil || ch.Fast.Cluster.Name() != "far" {
		t.Fatalf("fast = %+v", ch.Fast)
	}
	if ch.Best == nil || ch.Best.Cluster.Name() != "near" {
		t.Fatalf("best = %+v", ch.Best)
	}
}

func TestNoWaitNearestAlreadyRunning(t *testing.T) {
	st := stateOf(info("near", "docker", 0, true))
	ch := NoWaitScheduler{}.Choose(st)
	if ch.Fast == nil || ch.Fast.Cluster.Name() != "near" || ch.Best != nil {
		t.Fatalf("choice = %+v", ch)
	}
}

func TestDockerFirstColdStart(t *testing.T) {
	st := stateOf(info("dkr", "docker", 0, false), info("k8s", "kubernetes", 0, false))
	ch := DockerFirstScheduler{}.Choose(st)
	if ch.Fast == nil || ch.Fast.Kind != "docker" {
		t.Fatalf("fast = %+v, want docker", ch.Fast)
	}
	if ch.Best == nil || ch.Best.Kind != "kubernetes" {
		t.Fatalf("best = %+v, want kubernetes", ch.Best)
	}
}

func TestDockerFirstPrefersRunningKubernetes(t *testing.T) {
	st := stateOf(info("dkr", "docker", 0, true), info("k8s", "kubernetes", 0, true))
	ch := DockerFirstScheduler{}.Choose(st)
	if ch.Fast == nil || ch.Fast.Kind != "kubernetes" || ch.Best != nil {
		t.Fatalf("choice = %+v, want kubernetes only", ch)
	}
}

func TestDockerFirstWithoutDockerFallsBack(t *testing.T) {
	st := stateOf(info("k8s", "kubernetes", 0, false))
	ch := DockerFirstScheduler{}.Choose(st)
	if ch.Fast == nil || ch.Fast.Kind != "kubernetes" {
		t.Fatalf("choice = %+v", ch)
	}
}

func TestDockerFirstOnlyDocker(t *testing.T) {
	st := stateOf(info("dkr", "docker", 0, false))
	ch := DockerFirstScheduler{}.Choose(st)
	if ch.Fast == nil || ch.Fast.Kind != "docker" || ch.Best != nil {
		t.Fatalf("choice = %+v", ch)
	}
}

func TestSchedulerRegistry(t *testing.T) {
	for name, want := range map[string]GlobalScheduler{
		"proximity":    ProximityScheduler{},
		"wait-nearest": WaitNearestScheduler{},
		"no-wait":      NoWaitScheduler{},
		"docker-first": DockerFirstScheduler{},
	} {
		s, err := NewScheduler(name)
		if err != nil {
			t.Errorf("NewScheduler(%q): %v", name, err)
			continue
		}
		if s != want {
			t.Errorf("NewScheduler(%q) = %T, want %T", name, s, want)
		}
	}
	if _, err := NewScheduler("nope"); err == nil {
		t.Error("unknown scheduler accepted")
	}
	names := SchedulerNames()
	if len(names) < 4 {
		t.Errorf("SchedulerNames = %v", names)
	}
}

func TestRegisterDuplicateSchedulerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	RegisterScheduler("proximity", func() GlobalScheduler { return ProximityScheduler{} })
}

func TestDeployRecordTotal(t *testing.T) {
	r := DeployRecord{Pull: 1, Create: 2, ScaleUp: 3, ReadyWait: 4}
	if r.Total() != 10 {
		t.Fatalf("Total = %d", r.Total())
	}
}

func infoLoaded(name string, dist, load int, running bool) ClusterInfo {
	ci := info(name, "docker", dist, running)
	ci.Load = load
	return ci
}

func TestLeastLoadedPicksLightest(t *testing.T) {
	st := stateOf(
		infoLoaded("near-busy", 0, 5, true),
		infoLoaded("far-idle", 1, 1, true),
	)
	ch := LeastLoadedScheduler{}.Choose(st)
	if ch.Fast == nil || ch.Fast.Cluster.Name() != "far-idle" {
		t.Fatalf("fast = %+v, want far-idle", ch.Fast)
	}
	// The nearest cluster already runs: no background deployment needed.
	if ch.Best != nil {
		t.Fatalf("best = %+v, want nil", ch.Best)
	}
}

func TestLeastLoadedTieBrokenByProximity(t *testing.T) {
	st := stateOf(
		infoLoaded("near", 0, 2, true),
		infoLoaded("far", 1, 2, true),
	)
	ch := LeastLoadedScheduler{}.Choose(st)
	if ch.Fast == nil || ch.Fast.Cluster.Name() != "near" {
		t.Fatalf("fast = %+v, want near on tie", ch.Fast)
	}
}

func TestLeastLoadedDeploysNearestWhenColdElsewhere(t *testing.T) {
	// Nothing runs: wait on nearest (proximity behavior).
	st := stateOf(infoLoaded("near", 0, 0, false), infoLoaded("far", 1, 0, false))
	ch := LeastLoadedScheduler{}.Choose(st)
	if ch.Fast == nil || ch.Fast.Cluster.Name() != "near" || ch.Best != nil {
		t.Fatalf("choice = %+v", ch)
	}
	// Far running, near cold: serve from far, warm near in background.
	st = stateOf(infoLoaded("near", 0, 0, false), infoLoaded("far", 1, 3, true))
	ch = LeastLoadedScheduler{}.Choose(st)
	if ch.Fast == nil || ch.Fast.Cluster.Name() != "far" {
		t.Fatalf("fast = %+v", ch.Fast)
	}
	if ch.Best == nil || ch.Best.Cluster.Name() != "near" {
		t.Fatalf("best = %+v", ch.Best)
	}
	if ch := (LeastLoadedScheduler{}).Choose(stateOf()); ch.Fast != nil {
		t.Fatalf("empty state choice = %+v", ch)
	}
}
