package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ptffedrec/internal/data"
)

// testOptions uses the Tiny profile so the whole experiment grid stays fast.
func testOptions() Options {
	o := DefaultOptions()
	o.ProfilesOverride = []data.Profile{data.Tiny}
	return o
}

// results holds one run per experiment id on testOptions, shared by the
// registry sweep and the tests that pin a paper claim on a named row.
var results = map[string]Renderer{}

// lightIDs are the experiments cheap enough for -short (and so for -race).
var lightIDs = map[string]bool{"table2": true, "table4": true, "scalability": true}

func resultOn(t *testing.T, id string) Renderer {
	t.Helper()
	if testing.Short() && !lightIDs[id] {
		t.Skip("full experiment grid; skipped in -short")
	}
	if res, ok := results[id]; ok {
		return res
	}
	res, err := ResultFor(id, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	results[id] = res
	return res
}

func gridOn(t *testing.T, id string) *Grid {
	t.Helper()
	g, ok := resultOn(t, id).(*Grid)
	if !ok {
		t.Fatalf("%s is not a grid experiment", id)
	}
	return g
}

func printed(r Renderer) string {
	var buf bytes.Buffer
	r.Print(&buf)
	return buf.String()
}

// cellOf returns the named row's cell in the first column.
func cellOf(t *testing.T, g *Grid, label string) Cell {
	t.Helper()
	for _, row := range g.Rows {
		if row.Label == label {
			return row.Cells[0]
		}
	}
	t.Fatalf("%s has no row %q", g.ID, label)
	return Cell{}
}

func TestProfilesByScale(t *testing.T) {
	small := Options{Scale: ScaleSmall}.Profiles()
	full := Options{Scale: ScaleFull}.Profiles()
	if len(small) != 3 || len(full) != 3 {
		t.Fatal("want 3 datasets per scale")
	}
	if small[0].NumUsers >= full[0].NumUsers {
		t.Fatal("small profile not smaller than full")
	}
	if full[0].NumUsers != 943 {
		t.Fatalf("full ML profile users = %d", full[0].NumUsers)
	}
}

// TestExperimentIDsAllDispatchable is the registry-driven sweep: every
// advertised id runs on tiny + Quick, its result prints under the registered
// title with every row labelled, and its JSON record round-trips. A grid
// additionally has the rows and columns its registry entry declares, and
// every Cell field it reports is finite and in range.
func TestExperimentIDsAllDispatchable(t *testing.T) {
	if len(ExperimentIDs) != len(registry) {
		t.Fatalf("ExperimentIDs = %v for %d registered experiments", ExperimentIDs, len(registry))
	}
	for _, id := range ExperimentIDs {
		t.Run(id, func(t *testing.T) {
			e := lookup(id)
			res := resultOn(t, id)
			out := printed(res)
			if !strings.Contains(out, e.title) {
				t.Fatalf("output lacks the title %q:\n%s", e.title, out)
			}

			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			back := reflect.New(reflect.TypeOf(res))
			if err := json.Unmarshal(blob, back.Interface()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back.Elem().Interface(), res) {
				t.Fatalf("JSON round-trip mismatch:\n  %+v\n  %+v", back.Elem().Interface(), res)
			}

			g, ok := res.(*Grid)
			if !ok {
				return
			}
			wantRows, wantCols := len(e.arms), len(e.columns(testOptions()))
			if id == "table6" {
				wantRows-- // the no-defense row is the baseline the ratios are taken against
			}
			if len(g.Rows) != wantRows || len(g.Columns) != wantCols {
				t.Fatalf("grid is %d×%d, registry declares %d×%d", len(g.Rows), len(g.Columns), wantRows, wantCols)
			}
			var record struct {
				Rows []struct {
					Cells []map[string]float64
				}
			}
			if err := json.Unmarshal(blob, &record); err != nil {
				t.Fatal(err)
			}
			for i, row := range g.Rows {
				if !strings.Contains(out, row.Label) {
					t.Fatalf("output lacks row %q:\n%s", row.Label, out)
				}
				if len(row.Cells) != len(g.Columns) {
					t.Fatalf("row %q has %d cells for %d columns", row.Label, len(row.Cells), len(g.Columns))
				}
				for _, cell := range record.Rows[i].Cells {
					for _, f := range g.Fields {
						v, reported := cell[f]
						inRange := v >= 0 && v <= 1 // recall, ndcg, f1
						switch f {
						case "bytes":
							inRange = v > 0
						case "ratio":
							inRange = true
						}
						if !reported || math.IsNaN(v) || math.IsInf(v, 0) || !inRange {
							t.Fatalf("row %q: %s = %v (reported: %v)", row.Label, f, v, reported)
						}
					}
				}
			}
		})
	}
}

// requireShape pins a grid to the paper's layout — independent of what the
// registry declares — and one label its output must carry.
func requireShape(t *testing.T, id string, rows, cols int, label string) {
	t.Helper()
	g := gridOn(t, id)
	if len(g.Rows) != rows || len(g.Columns) != cols {
		t.Fatalf("%s is %d×%d, want %d×%d", id, len(g.Rows), len(g.Columns), rows, cols)
	}
	if out := printed(g); !strings.Contains(out, label) {
		t.Fatalf("%s output lacks %q:\n%s", id, label, out)
	}
}

// 3 centralized + 3 baselines + 3 PTF-FedRec rows.
func TestRunTable3Shape(t *testing.T) { requireShape(t, "table3", 9, 1, "PTF-FedRec(ngcf)") }
func TestRunTable7Shape(t *testing.T) { requireShape(t, "table7", 4, 1, "conf+hard") }

// Table VIII stays a client × server matrix on one dataset.
func TestRunTable8Shape(t *testing.T) { requireShape(t, "table8", 3, 3, `client\server`) }
func TestRunFig4Shape(t *testing.T)   { requireShape(t, "fig4", 5, 1, "α=10") }

// Three panels (β, γ, λ) of four settings each.
func TestRunFig3Shape(t *testing.T) { requireShape(t, "fig3", 12, 1, "γ=[2 4]") }
func TestRunAblationShapes(t *testing.T) {
	requireShape(t, "ablation-servergraph", 3, 1, "threshold")
	requireShape(t, "ablation-noise", 8, 1, "laplace b=0.25")
}

func TestRunTable2(t *testing.T) {
	res := RunTable2(testOptions())
	if len(res.Stats) != 1 {
		t.Fatalf("stats rows = %d", len(res.Stats))
	}
	if !strings.Contains(printed(res), "Table II") {
		t.Fatal("missing header")
	}
}

func TestRunTable4CommunicationOrdering(t *testing.T) {
	g := gridOn(t, "table4")
	fcf, fedmf := cellOf(t, g, "FCF").Bytes, cellOf(t, g, "FedMF").Bytes
	metamf, ptf := cellOf(t, g, "MetaMF").Bytes, cellOf(t, g, "PTF-FedRec").Bytes
	// The paper's headline ordering: FedMF >> FCF/MetaMF >> PTF-FedRec.
	if !(fedmf > fcf) {
		t.Fatalf("FedMF (%v) should exceed FCF (%v)", fedmf, fcf)
	}
	if !(metamf > fcf) {
		t.Fatalf("MetaMF (%v) should slightly exceed FCF (%v)", metamf, fcf)
	}
	if !(ptf < fcf/10) {
		t.Fatalf("PTF (%v) should be at least 10x below FCF (%v)", ptf, fcf)
	}
}

func TestRunTable5AndTable6(t *testing.T) {
	t5 := gridOn(t, "table5")
	none, swap := cellOf(t, t5, "none"), cellOf(t, t5, "sampling+swap")
	if none.F1 < swap.F1 {
		t.Fatalf("no-defense F1 (%v) should exceed sampling+swap (%v)", none.F1, swap.F1)
	}
	requireShape(t, "table5", 4, 1, "Table V:")
	requireShape(t, "table6", 3, 1, "Table VI:")

	// Table VI is Table V's grid, derived: ΔF1/ΔNDCG against the no-defense row.
	dN := none.NDCG - swap.NDCG
	if dN <= 1e-9 {
		dN = 1e-9
	}
	if got, want := cellOf(t, gridOn(t, "table6"), "sampling+swap").Ratio, (none.F1-swap.F1)/dN; got != want {
		t.Fatalf("table6 sampling+swap ratio = %v, want %v from table5", got, want)
	}
}

func TestRunDispatcher(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table2", testOptions(), &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
	if err := Run("bogus", testOptions(), &buf); err == nil {
		t.Fatal("bogus experiment accepted")
	}
}

// update rewrites testdata/grids.json from this tree's runs:
// go test ./internal/experiments -run TestGridCellsMatchTestdata -update.
var update = flag.Bool("update", false, "rewrite testdata/grids.json from this tree's grid runs")

const gridsTestdata = "testdata/grids.json"

// TestGridCellsMatchTestdata pins every grid experiment's cells at tiny +
// Quick to the recorded ones, float bit for float bit: a change that moves
// no arithmetic leaves every cell of every table where it was. A change that
// does move numbers regenerates the file with -update and says why.
func TestGridCellsMatchTestdata(t *testing.T) {
	want := map[string][]Row{}
	if !*update {
		want = recordedGrids(t)
	}
	got := map[string][]Row{}
	for _, e := range registry {
		if e.custom != nil {
			continue
		}
		t.Run(e.id, func(t *testing.T) {
			g := gridOn(t, e.id)
			got[e.id] = g.Rows
			if *update {
				return
			}
			rows, ok := want[e.id]
			if !ok {
				t.Fatalf("%s has no record in %s", e.id, gridsTestdata)
			}
			if len(rows) != len(g.Rows) {
				t.Fatalf("%d rows, recorded %d", len(g.Rows), len(rows))
			}
			for i, row := range g.Rows {
				if row.Label != rows[i].Label || len(row.Cells) != len(rows[i].Cells) {
					t.Fatalf("row %d is %q with %d cells, recorded %q with %d", i, row.Label, len(row.Cells), rows[i].Label, len(rows[i].Cells))
				}
				for j, c := range row.Cells {
					w := rows[i].Cells[j]
					gf := []float64{c.Recall, c.NDCG, c.F1, c.Bytes, c.Ratio}
					wf := []float64{w.Recall, w.NDCG, w.F1, w.Bytes, w.Ratio}
					for k := range gf {
						if math.Float64bits(gf[k]) != math.Float64bits(wf[k]) {
							t.Errorf("%s / %s: %+v, recorded %+v", row.Label, g.Columns[j], c, w)
							break
						}
					}
				}
			}
		})
	}
	if *update {
		blob, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(gridsTestdata), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gridsTestdata, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recordedGrids reads testdata/grids.json: each grid experiment's rows.
func recordedGrids(t *testing.T) map[string][]Row {
	t.Helper()
	blob, err := os.ReadFile(gridsTestdata)
	if err != nil {
		t.Fatal(err)
	}
	grids := map[string][]Row{}
	if err := json.Unmarshal(blob, &grids); err != nil {
		t.Fatal(err)
	}
	return grids
}

// TestPaperClaimsInTestdata computes the paper's headline claims from the
// recorded tiny + Quick cells in testdata/grids.json and pins each to the
// value it has there, true or false: at this size some do not hold, and
// what is pinned is that none flips unnoticed. A -update that flips one fails
// here until its want changes, with a CHANGES.md line saying why. It reads
// the file only, so it trains nothing.
func TestPaperClaimsInTestdata(t *testing.T) {
	grids := recordedGrids(t)
	cell := func(id, label string) Cell {
		return cellOf(t, &Grid{ID: id, Rows: grids[id]}, label)
	}
	ndcg := func(id, label string) float64 { return cell(id, label).NDCG }
	ptf := ndcg("table3", "PTF-FedRec(lightgcn)")
	ptfBytes := cell("table4", "PTF-FedRec").Bytes
	confHard := ndcg("table7", "conf+hard")
	for _, c := range []struct {
		claim       string
		holds, want bool
	}{
		// Table III: the LightGCN-server PTF-FedRec ranks above every
		// parameter-transmission baseline, and LightGCN is the best server.
		{"PTF-FedRec(lightgcn) NDCG above FCF's", ptf > ndcg("table3", "FCF"), false},
		{"PTF-FedRec(lightgcn) NDCG above FedMF's", ptf > ndcg("table3", "FedMF"), false},
		{"PTF-FedRec(lightgcn) NDCG above MetaMF's", ptf > ndcg("table3", "MetaMF"), false},
		{"LightGCN the best PTF-FedRec server", ptf > ndcg("table3", "PTF-FedRec(neumf)") &&
			ptf > ndcg("table3", "PTF-FedRec(ngcf)"), true},
		// Table IV: an order of magnitude less traffic than any baseline.
		{"PTF-FedRec bytes 10x below FCF's", 10*ptfBytes <= cell("table4", "FCF").Bytes, true},
		{"PTF-FedRec bytes 10x below FedMF's", 10*ptfBytes <= cell("table4", "FedMF").Bytes, true},
		{"PTF-FedRec bytes 10x below MetaMF's", 10*ptfBytes <= cell("table4", "MetaMF").Bytes, true},
		// Table V: sampling+swap defeats the Top Guess Attack.
		{"sampling+swap attack F1 below no defense's",
			cell("table5", "sampling+swap").F1 < cell("table5", "none").F1, true},
		// Table VII: the paper's D̃ᵢ beats each ablation.
		{"conf+hard NDCG above -hard's", confHard > ndcg("table7", "-hard"), true},
		{"conf+hard NDCG above -confidence's", confHard > ndcg("table7", "-confidence"), true},
		{"conf+hard NDCG above -confidence-hard's", confHard > ndcg("table7", "-confidence-hard"), true},
	} {
		if c.holds != c.want {
			t.Errorf("%s: %v in %s, pinned %v", c.claim, c.holds, gridsTestdata, c.want)
		}
	}
}
