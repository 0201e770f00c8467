package sched

import (
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// schedBenchLoops is a fixed slice of the standard corpus: large enough to
// mix single-attempt loops with loops that need several II attempts (where
// the scratch-arena reuse pays off most).
func schedBenchLoops(b *testing.B) []*ir.Loop {
	b.Helper()
	return corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 48})
}

func benchScheduleLoop(b *testing.B, cfg machine.Config) {
	loops := schedBenchLoops(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			if _, err := ScheduleLoop(l, cfg, Options{}); err != nil {
				b.Fatalf("%s: %v", l.Name, err)
			}
		}
	}
}

func BenchmarkScheduleLoopSingle12(b *testing.B) {
	benchScheduleLoop(b, machine.SingleCluster(12))
}

func BenchmarkScheduleLoopClustered4(b *testing.B) {
	benchScheduleLoop(b, machine.Clustered(4))
}

func BenchmarkScheduleLoopClustered6(b *testing.B) {
	benchScheduleLoop(b, machine.Clustered(6))
}

// BenchmarkSchedulePortfolioExhaustive prices the full strategy portfolio: the
// same clustered-6 workload as above under EffortExhaustive, so the bench
// trajectory records what the portfolio costs relative to the fast path.
func BenchmarkSchedulePortfolioExhaustive(b *testing.B) {
	loops := schedBenchLoops(b)
	cfg := machine.Clustered(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			if _, err := ScheduleLoop(l, cfg, Options{Effort: EffortExhaustive}); err != nil {
				b.Fatalf("%s: %v", l.Name, err)
			}
		}
	}
}

// BenchmarkScheduleOptimalSmall prices the certified tier on the
// hand-written kernels — the population small enough that proofs complete
// — so the bench trajectory records what a certificate costs on top of the
// exhaustive portfolio it contains.
func BenchmarkScheduleOptimalSmall(b *testing.B) {
	loops := corpus.Kernels()
	cfg := machine.Clustered(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			if _, err := ScheduleLoop(l, cfg, Options{Effort: EffortOptimal}); err != nil {
				b.Fatalf("%s: %v", l.Name, err)
			}
		}
	}
}
