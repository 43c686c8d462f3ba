package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestRunScalability(t *testing.T) {
	res := resultOn(t, "scalability").(*ScalabilityResult)
	if len(res.Rows) < 2 {
		t.Fatalf("want at least the workers=1 row plus one parallel row, got %d", len(res.Rows))
	}
	if res.Rows[0].Workers != 1 {
		t.Fatalf("first row workers = %d, want 1", res.Rows[0].Workers)
	}
	if !res.Deterministic {
		t.Fatal("history or metrics differ across worker counts")
	}
	if res.GOMAXPROCS <= 0 {
		t.Fatalf("record is not stamped with its GOMAXPROCS: %+v", res)
	}
	for _, row := range res.Rows {
		if row.Recall != res.Rows[0].Recall || row.NDCG != res.Rows[0].NDCG {
			t.Fatalf("row %+v metrics differ from baseline %+v", row, res.Rows[0])
		}
		if row.RoundSecs <= 0 || row.EvalSecs <= 0 || row.RoundSpeedup <= 0 || row.EvalSpeedup <= 0 {
			t.Fatalf("row %+v missing round/eval timings", row)
		}
		// Per-phase timings must be populated and account for the round: the
		// LightGCN server guarantees non-zero graph-build and SGD phases.
		if row.ServerTrainSecs <= 0 || row.GraphSecs <= 0 || row.ClientSecs <= 0 || row.DisperseSecs <= 0 {
			t.Fatalf("row %+v missing per-phase timings", row)
		}
		if row.ServerTrainSpeedup <= 0 || row.GraphSpeedup <= 0 {
			t.Fatalf("row %+v missing per-phase speedups", row)
		}
		if row.PeakHeapBytes == 0 || row.UploadStoreBytes <= 0 || row.GraphEngineBytes <= 0 {
			t.Fatalf("row %+v missing memory accounting", row)
		}
	}
	if out := printed(res); !strings.Contains(out, "identical across worker counts: true") {
		t.Fatalf("unexpected report:\n%s", out)
	}
}

// TestCommittedBenchRecordParses keeps the committed perf record and the
// result schema from drifting apart: every line of BENCH_scalability.json
// must decode into the current ScalabilityResult with no field left over.
func TestCommittedBenchRecordParses(t *testing.T) {
	f, err := os.Open("../../BENCH_scalability.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines++
		var rec struct {
			Experiment string          `json:"experiment"`
			Scale      string          `json:"scale"`
			Quick      bool            `json:"quick"`
			Seed       uint64          `json:"seed"`
			Seconds    float64         `json:"seconds"`
			Result     json.RawMessage `json:"result"`
		}
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if rec.Experiment != "scalability" {
			t.Fatalf("line %d: experiment %q", lines, rec.Experiment)
		}
		var res ScalabilityResult
		dec = json.NewDecoder(bytes.NewReader(rec.Result))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("line %d: result does not match the ScalabilityResult schema: %v", lines, err)
		}
		if len(res.Rows) == 0 || !res.Deterministic || res.GOMAXPROCS < 2 || res.CPUModel == "" || res.GitSHA == "" {
			t.Fatalf("line %d: record is empty, non-deterministic, single-core or unstamped: %+v", lines, res)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("committed record is empty")
	}
}
