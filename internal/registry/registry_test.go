package registry

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
)

// rig builds an edge host and a registry host joined by a configurable link.
type rig struct {
	k      *sim.Kernel
	edge   *simnet.Host
	server *Server
	client *Client
}

func newRig(t *testing.T, link simnet.LinkConfig, srvCfg ServerConfig, timing pullTiming) *rig {
	t.Helper()
	k := sim.New(1)
	n := simnet.NewNetwork(k)
	edge := simnet.NewHost(n, "edge", "10.0.0.1")
	reg := simnet.NewHost(n, "registry", "198.51.100.1")
	r := simnet.NewRouter(n, "r")
	_, re := edge.AttachTo(r, simnet.LinkConfig{Latency: 100 * time.Microsecond, Bandwidth: 10 * simnet.Gbps})
	_, rr := reg.AttachTo(r, link)
	r.AddRoute(edge.IP(), re)
	r.AddRoute(reg.IP(), rr)
	srv := NewServer(reg, srvCfg)
	resolver := NewResolver()
	resolver.AddPrefix("", reg.IP())
	client := NewClient(edge, resolver)
	client.t = timing
	return &rig{k: k, edge: edge, server: srv, client: client}
}

func testImage(ref string, layerSizes ...simnet.Bytes) Image {
	img := Image{Ref: ref}
	for i, s := range layerSizes {
		img.Layers = append(img.Layers, Layer{
			Digest: ref + "-l" + string(rune('0'+i)),
			Size:   s,
		})
	}
	return img
}

func TestPullStoresImageAndLayers(t *testing.T) {
	rg := newRig(t, simnet.LinkConfig{Latency: time.Millisecond, Bandwidth: 1 * simnet.Gbps},
		ServerConfig{}, calibrated)
	img := testImage("nginx:1", 10*simnet.MiB, 5*simnet.MiB)
	rg.server.Add(img)
	var err error
	rg.k.Go("pull", func(p *sim.Proc) { err = rg.client.Pull(p, "nginx:1") })
	rg.k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rg.client.HasImage("nginx:1") {
		t.Fatal("image not present after pull")
	}
	for _, l := range img.Layers {
		if !rg.client.HasLayer(l.Digest) {
			t.Fatalf("layer %s missing", l.Digest)
		}
		if n := rg.server.Pulls[l.Digest]; n != 1 {
			t.Fatalf("layer %s downloaded %d times, want 1", l.Digest, n)
		}
	}
}

func TestPullUnknownImage(t *testing.T) {
	rg := newRig(t, simnet.LinkConfig{Latency: time.Millisecond}, ServerConfig{}, calibrated)
	var err error
	rg.k.Go("pull", func(p *sim.Proc) { err = rg.client.Pull(p, "ghost:1") })
	rg.k.Run()
	if !errors.Is(err, ErrUnknownImage) {
		t.Fatalf("err = %v, want ErrUnknownImage", err)
	}
}

func TestPullSkipsCachedLayers(t *testing.T) {
	rg := newRig(t, simnet.LinkConfig{Latency: time.Millisecond, Bandwidth: 100 * simnet.Mbps},
		ServerConfig{}, calibrated)
	shared := Layer{Digest: "base-0", Size: 50 * simnet.MiB}
	a := Image{Ref: "a:1", Layers: []Layer{shared, {Digest: "a-1", Size: simnet.MiB}}}
	b := Image{Ref: "b:1", Layers: []Layer{shared, {Digest: "b-1", Size: simnet.MiB}}}
	rg.server.Add(a)
	rg.server.Add(b)
	var tA, tB time.Duration
	rg.k.Go("pulls", func(p *sim.Proc) {
		start := p.Now()
		if err := rg.client.Pull(p, "a:1"); err != nil {
			t.Errorf("pull a: %v", err)
		}
		tA = p.Now() - start
		start = p.Now()
		if err := rg.client.Pull(p, "b:1"); err != nil {
			t.Errorf("pull b: %v", err)
		}
		tB = p.Now() - start
	})
	rg.k.Run()
	if rg.server.Pulls["base-0"] != 1 {
		t.Fatalf("base layer downloaded %d times, want 1", rg.server.Pulls["base-0"])
	}
	if tB >= tA/2 {
		t.Fatalf("cached-base pull (%v) not much faster than cold pull (%v)", tB, tA)
	}
}

func TestPullTimeScalesWithBandwidth(t *testing.T) {
	pull := func(bw simnet.BitsPerSec) time.Duration {
		rg := newRig(t, simnet.LinkConfig{Latency: 10 * time.Millisecond, Bandwidth: bw},
			ServerConfig{}, pullTiming{downloads: 3, timeout: requestTimeout})
		rg.server.Add(testImage("big:1", 100*simnet.MiB))
		var d time.Duration
		rg.k.Go("pull", func(p *sim.Proc) {
			start := p.Now()
			if err := rg.client.Pull(p, "big:1"); err != nil {
				t.Errorf("pull: %v", err)
			}
			d = p.Now() - start
		})
		rg.k.Run()
		return d
	}
	fast := pull(1000 * simnet.Mbps)
	slow := pull(100 * simnet.Mbps)
	if slow < 9*fast/2 { // roughly 10x, allow slack for fixed costs
		t.Fatalf("slow=%v fast=%v, want ~10x ratio", slow, fast)
	}
}

func TestPerLayerLatencyMatters(t *testing.T) {
	// Same total size, more layers -> slower when the registry charges
	// per-blob latency (the paper's fig. 13 note).
	pull := func(nLayers int) time.Duration {
		rg := newRig(t, simnet.LinkConfig{Latency: 30 * time.Millisecond, Bandwidth: 1 * simnet.Gbps},
			ServerConfig{ManifestLatency: 100 * time.Millisecond, BlobLatency: 150 * time.Millisecond},
			pullTiming{downloads: 1, timeout: requestTimeout})
		total := 60 * simnet.MiB
		img := Image{Ref: "img:1"}
		for i := 0; i < nLayers; i++ {
			img.Layers = append(img.Layers, Layer{
				Digest: "d" + string(rune('a'+i)),
				Size:   total / simnet.Bytes(nLayers),
			})
		}
		rg.server.Add(img)
		var d time.Duration
		rg.k.Go("pull", func(p *sim.Proc) {
			start := p.Now()
			if err := rg.client.Pull(p, "img:1"); err != nil {
				t.Errorf("pull: %v", err)
			}
			d = p.Now() - start
		})
		rg.k.Run()
		return d
	}
	one, nine := pull(1), pull(9)
	if nine <= one+8*150*time.Millisecond {
		t.Fatalf("9-layer pull %v vs 1-layer %v: per-layer cost not visible", nine, one)
	}
}

func TestConcurrentDownloadsBounded(t *testing.T) {
	// With 6 equal layers and concurrency 3 on a shared link, the pull
	// takes about the same as 6 sequential transfers of the fair-shared
	// link (conservation), but must beat concurrency-1 on a latency-bound
	// workload.
	mk := func(conc int) time.Duration {
		rg := newRig(t, simnet.LinkConfig{Latency: 50 * time.Millisecond, Bandwidth: 0},
			ServerConfig{BlobLatency: 100 * time.Millisecond},
			pullTiming{downloads: conc, timeout: requestTimeout})
		img := Image{Ref: "i:1"}
		for i := 0; i < 6; i++ {
			img.Layers = append(img.Layers, Layer{Digest: "d" + string(rune('0'+i)), Size: simnet.KiB})
		}
		rg.server.Add(img)
		var d time.Duration
		rg.k.Go("pull", func(p *sim.Proc) {
			start := p.Now()
			rg.client.Pull(p, "i:1")
			d = p.Now() - start
		})
		rg.k.Run()
		return d
	}
	seq, par := mk(1), mk(3)
	if par >= seq {
		t.Fatalf("parallel pull (%v) not faster than sequential (%v)", par, seq)
	}
}

func TestRemoveImageKeepsSharedLayers(t *testing.T) {
	rg := newRig(t, simnet.LinkConfig{Latency: time.Millisecond}, ServerConfig{}, calibrated)
	shared := Layer{Digest: "base", Size: simnet.MiB}
	rg.server.Add(Image{Ref: "a:1", Layers: []Layer{shared, {Digest: "a1", Size: simnet.KiB}}})
	rg.server.Add(Image{Ref: "b:1", Layers: []Layer{shared, {Digest: "b1", Size: simnet.KiB}}})
	rg.k.Go("pulls", func(p *sim.Proc) {
		rg.client.Pull(p, "a:1")
		rg.client.Pull(p, "b:1")
	})
	rg.k.Run()
	rg.client.RemoveImage("a:1")
	if rg.client.HasImage("a:1") {
		t.Fatal("a:1 still present")
	}
	if !rg.client.HasLayer("base") {
		t.Fatal("shared base layer deleted while b:1 still references it")
	}
	if rg.client.HasLayer("a1") {
		t.Fatal("unreferenced layer a1 not deleted")
	}
	rg.client.RemoveImage("b:1")
	if rg.client.HasLayer("base") {
		t.Fatal("base layer kept with no referencing image")
	}
}

func TestResolverLongestPrefix(t *testing.T) {
	r := NewResolver()
	r.AddPrefix("", "1.1.1.1")
	r.AddPrefix("gcr.io/", "2.2.2.2")
	if a, _ := r.Resolve("nginx:1.23.2"); a != "1.1.1.1" {
		t.Fatalf("nginx -> %s", a)
	}
	if a, _ := r.Resolve("gcr.io/tensorflow-serving/resnet"); a != "2.2.2.2" {
		t.Fatalf("gcr image -> %s", a)
	}
	empty := NewResolver()
	if _, err := empty.Resolve("x"); !errors.Is(err, ErrUnknownRegistry) {
		t.Fatalf("err = %v", err)
	}
}

func TestImageTotalSize(t *testing.T) {
	img := testImage("x:1", 10, 20, 30)
	if img.TotalSize() != 60 {
		t.Fatalf("TotalSize = %d", img.TotalSize())
	}
}

func TestPullFailsWhenRegistryUnreachable(t *testing.T) {
	rg := newRig(t, simnet.LinkConfig{Latency: time.Millisecond, Bandwidth: simnet.Gbps},
		ServerConfig{}, pullTiming{downloads: maxDownloads, timeout: 2 * time.Second})
	rg.server.Add(testImage("nginx:1", simnet.MiB))
	// Resolve the image to an address where nothing listens: the SYN is
	// dropped and the request must time out instead of hanging forever.
	res2 := NewResolver()
	res2.AddPrefix("", "203.0.113.250") // nothing there
	client := NewClient(rg.edge, res2)
	client.t = rg.client.t
	var err error
	var took time.Duration
	rg.k.Go("pull", func(p *sim.Proc) {
		t0 := p.Now()
		err = client.Pull(p, "nginx:1")
		took = p.Now() - t0
	})
	rg.k.RunUntil(time.Minute)
	if err == nil {
		t.Fatal("pull from unreachable registry succeeded")
	}
	if took < 2*time.Second || took > 3*time.Second {
		t.Fatalf("pull failed after %v, want ~RequestTimeout", took)
	}
}

// asyncPull is a continuation that pulls one image.
type asyncPull struct {
	sim.Cont[asyncPull]
	c   *Client
	ref string
	log *[]string
}

// TestPullAsyncMatchesPull pulls two images that share a layer, at once, on
// twin rigs: from processes with Pull on one, from continuations with
// PullAsync on the other, whose callback goes on one zero-delay event later,
// as the kubelet's does. Each layer and image is recorded at the same instant
// and in the same kernel step on both, and each pull ends at the same instant.
func TestPullAsyncMatchesPull(t *testing.T) {
	shared := Layer{Digest: "base", Size: 8 * simnet.MiB}
	images := []Image{
		{Ref: "a:1", Layers: []Layer{shared, {"a-1", 30 * simnet.MiB}, {"a-2", 2 * simnet.MiB}, {"a-3", 9 * simnet.MiB}, {"a-4", simnet.MiB}}},
		{Ref: "b:1", Layers: []Layer{{"b-1", 3 * simnet.MiB}, shared, {"b-2", 12 * simnet.MiB}}},
	}
	run := func(async bool) []string {
		rg := newRig(t, simnet.LinkConfig{Latency: 5 * time.Millisecond, Bandwidth: 200 * simnet.Mbps},
			ServerConfig{ManifestLatency: 10 * time.Millisecond, BlobLatency: 20 * time.Millisecond}, calibrated)
		defer rg.k.Close()
		var log []string
		for _, img := range images {
			rg.server.Add(img)
			ref := img.Ref
			if !async {
				rg.k.Go("pull", func(p *sim.Proc) {
					err := rg.client.Pull(p, ref)
					log = append(log, fmt.Sprintf("%v: %s pulled, %v", p.Now(), ref, err))
				})
				continue
			}
			a := &asyncPull{c: rg.client, ref: ref, log: &log}
			a.Init(rg.k, a, 0)
			a.Sleep(0, func(a *asyncPull) sim.Step[asyncPull] { // where Kernel.Go starts a process
				a.c.PullAsync(a.ref, func(err error) {
					a.Sleep(0, func(a *asyncPull) sim.Step[asyncPull] { // where the process woke
						*a.log = append(*a.log, fmt.Sprintf("%v: %s pulled, %v", a.Now(), a.ref, err))
						return nil
					})
				})
				return nil
			})
		}
		seen := map[string]bool{}
		for rg.k.Step() {
			var got []string
			for d := range rg.client.layers {
				if !seen[d] {
					seen[d] = true
					got = append(got, "layer "+d)
				}
			}
			for ref := range rg.client.images {
				if !seen[ref] {
					seen[ref] = true
					got = append(got, "image "+ref)
				}
			}
			slices.Sort(got)
			for _, g := range got {
				log = append(log, fmt.Sprintf("%v step %d: %s", rg.k.Now(), rg.k.Steps(), g))
			}
		}
		return log
	}
	want, got := run(false), run(true)
	slices.Sort(want)
	slices.Sort(got)
	if len(want) != 7+2+2 || !slices.Equal(got, want) { // 7 layers, 2 images, 2 pulls
		t.Fatalf("PullAsync from continuations:\n%v\nPull from processes:\n%v", got, want)
	}
}
