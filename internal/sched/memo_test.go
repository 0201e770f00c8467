package sched

import (
	"reflect"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/machine"
)

// TestRaceMemoHeightsOncePerII walks heightsFor over an II range several
// times and checks every returned vector against a privately computed
// fixpoint, then that the memo computed each II exactly once.
func TestRaceMemoHeightsOncePerII(t *testing.T) {
	cfg := machine.Clustered(4)
	for _, l := range corpus.Stressed()[:8] {
		m := newRaceMemo(l, &cfg)
		const iiLo, iiHi = 1, 24
		var own []int
		for rep := 0; rep < 4; rep++ {
			for ii := iiLo; ii <= iiHi; ii++ {
				got := m.heightsFor(ii)
				own = heightsInto(own, m.lat, m.deps, ii, m.n)
				if !reflect.DeepEqual(got, own) {
					t.Fatalf("%s: heightsFor(%d) diverged from a private heightsInto", l.Name, ii)
				}
			}
		}
		if m.used != iiHi-iiLo+1 {
			t.Fatalf("%s: memo holds %d height vectors, want %d (one per distinct II)", l.Name, m.used, iiHi-iiLo+1)
		}
		m.release()
	}
}
