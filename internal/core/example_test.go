package core_test

import (
	"fmt"

	"transparentedge/internal/core"
)

// Custom Global Schedulers plug in through the name registry, mirroring the
// paper's dynamically loaded scheduler configuration.
func ExampleRegisterScheduler() {
	core.RegisterScheduler("always-second", func() core.GlobalScheduler {
		return alwaysSecond{}
	})
	s, err := core.NewScheduler("always-second")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%T\n", s)
	// Output:
	// core_test.alwaysSecond
}

// alwaysSecond is a toy policy: the second-nearest cluster serves, the
// nearest is warmed in the background.
type alwaysSecond struct{}

func (alwaysSecond) Choose(st core.State) core.Choice {
	if len(st.Clusters) < 2 {
		return core.ProximityScheduler{}.Choose(st)
	}
	return core.Choice{Fast: &st.Clusters[1], Best: &st.Clusters[0]}
}
