package tpi_test

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/task"
	"repro/internal/tpi"
)

// BenchmarkInsert times scan insertion of s38584, the suite's largest
// profile, at the daemon's screen-job scale and at half scale.
func BenchmarkInsert(b *testing.B) {
	p, err := gen.ProfileByName("s38584")
	if err != nil {
		b.Fatal(err)
	}
	for _, scale := range []float64{0.1, 0.5} {
		c := gen.Generate(p.Scale(scale), 1)
		opts := tpi.Options{NumChains: task.DefaultChains(len(c.FFs)), Seed: 1}
		b.Run(fmt.Sprintf("s38584@%v", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tpi.Insert(c, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
