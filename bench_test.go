// Benchmarks that regenerate every table and figure of the paper's
// evaluation section: one sub-benchmark per registered experiment id, each
// running the full experiment (small-scale profiles, shortened training — see
// internal/experiments) and printing the paper-style rows once. Run with:
//
//	go test -bench=. -benchmem
//	go test -bench=Experiments/table4 -benchtime=1x -run='^$'
//
// Full-scale runs go through `go run ./cmd/ptfbench -exp <id> -scale full`.
package ptffedrec

import (
	"fmt"
	"io"
	"os"
	"testing"
)

func BenchmarkExperiments(b *testing.B) {
	o := DefaultExperimentOptions()
	for _, id := range ExperimentIDs {
		b.Run(id, func(b *testing.B) {
			// Print on the first iteration only, so b.N reruns don't spam the log.
			var w io.Writer = os.Stdout
			fmt.Fprintf(w, "\n=== %s (scale=%s quick=%v) ===\n", id, o.Scale, o.Quick)
			for i := 0; i < b.N; i++ {
				if err := RunExperiment(id, o, w); err != nil {
					b.Fatal(err)
				}
				w = io.Discard
			}
		})
	}
}
