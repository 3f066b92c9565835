package sim_test

import (
	"fmt"
	"time"

	"transparentedge/internal/sim"
)

// worker drains a job channel as a continuation: parked on the channel, it
// runs one zero-delay event after each Send.
type worker struct {
	sim.Cont[worker]
	jobs *sim.Chan[string]
}

func work(w *worker) sim.Step[worker] {
	for job, ok := w.jobs.TryRecv(); ok; job, ok = w.jobs.TryRecv() {
		fmt.Printf("%v: %s\n", w.Now(), job)
	}
	w.Park(w.jobs, work)
	return nil
}

// A process and a continuation coordinate through a channel entirely in
// virtual time: the three-second scenario executes instantly and
// deterministically.
func Example() {
	k := sim.New(42)
	jobs := sim.NewChan[string](k)

	k.Go("producer", func(p *sim.Proc) {
		for _, job := range []string{"pull", "create", "scale-up"} {
			p.Sleep(time.Second)
			jobs.Send(job)
		}
	})
	w := &worker{jobs: jobs}
	w.Init(k, w, 0)
	w.Park(jobs, work)
	k.Run()
	// Output:
	// 1s: pull
	// 2s: create
	// 3s: scale-up
}

// A promise resolves a waiting process at the resolver's virtual time.
func ExamplePromise() {
	k := sim.New(1)
	ready := sim.NewPromise[string](k)
	k.Go("waiter", func(p *sim.Proc) {
		v, _ := ready.Await(p)
		fmt.Printf("%v: %s\n", p.Now(), v)
	})
	k.After(500*time.Millisecond, func() { ready.Resolve("deployed") })
	k.Run()
	// Output:
	// 500ms: deployed
}
