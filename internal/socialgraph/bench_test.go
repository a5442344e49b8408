package socialgraph_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/socialgraph"
)

// Sinks keep the compiler from discarding the measured calls.
var (
	sinkGraph *socialgraph.RadiusGraph
	sinkBall  socialgraph.Ball
)

// BenchmarkExtractRadiusGraph times the radius-graph extraction every
// query starts with, at the population where per-query O(N) work would
// show: 100k people, s = 2, a mean ball of a few hundred vertices. Every
// iteration takes another initiator (the stride starts away from vertex 0,
// the generator's biggest hub, so a one-iteration smoke run times an
// ordinary ball). B/op is the number to watch: it must follow the ball,
// not the population. "distances" is the hop-bounded distance pass alone.
func BenchmarkExtractRadiusGraph(b *testing.B) {
	const n = 100_000
	g := dataset.Synthetic(n, 1, 2).Graph
	b.Run("extract", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rg, err := g.ExtractRadiusGraph((i+1)*7919%n, 2)
			if err != nil {
				b.Fatal(err)
			}
			sinkGraph = rg
		}
	})
	b.Run("distances", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ball, err := g.Ball((i+1)*7919%n, 2)
			if err != nil {
				b.Fatal(err)
			}
			sinkBall = ball
		}
	})
}
