package sched

import (
	"reflect"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/machine"
)

// TestLoopFactsHeightsOncePerII walks heightsFor over an II range several
// times and checks every returned vector against a privately computed
// fixpoint, then that the facts computed each II exactly once.
func TestLoopFactsHeightsOncePerII(t *testing.T) {
	cfg := machine.Clustered(4)
	var f loopFacts
	for _, l := range corpus.Stressed()[:8] {
		f.bind(l, &cfg)
		const iiLo, iiHi = 1, 24
		var own []int
		for rep := 0; rep < 4; rep++ {
			for ii := iiLo; ii <= iiHi; ii++ {
				got := f.heightsFor(ii)
				own = heightsInto(own, f.lat, l.Deps, ii, f.n)
				if !reflect.DeepEqual(got, own) {
					t.Fatalf("%s: heightsFor(%d) diverged from a private heightsInto", l.Name, ii)
				}
			}
		}
		if f.used != iiHi-iiLo+1 {
			t.Fatalf("%s: facts hold %d height vectors, want %d (one per distinct II)", l.Name, f.used, iiHi-iiLo+1)
		}
	}
}
