package experiments

import (
	"fmt"
	"slices"

	"ptffedrec/internal/baselines"
	"ptffedrec/internal/central"
	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/fed"
	"ptffedrec/internal/models"
	"ptffedrec/internal/privacy"
)

// experiment is one table or figure of §IV, declared as data. Every result
// from Table III to Fig. 4 has one shape — a method run once per column, one
// row per method — so a grid experiment is its arms, its column axis and the
// Cell fields it reports; the runner and the renderer in grid.go are shared.
type experiment struct {
	id, title string

	rowHead string                 // heading over the row labels
	arms    []arm                  // one row each, in the paper's order
	columns func(Options) []column // the axis every arm runs along
	format  format
	derive  func(*Grid) // optional post-pass over the filled grid (Table VI)

	// custom replaces the grid runner for the two experiments whose result is
	// not a method × column grid (Table II, the scalability sweep).
	custom func(Options) (Renderer, error)
}

// arm is one method under test: a row label and the run that measures it on
// one column.
type arm struct {
	label string
	run   func(o Options, col column) (Cell, error)
}

// column is one position on an experiment's axis. The datasets are the axis
// everywhere except Table VIII, whose columns are the server models on one
// dataset: there mutate sets the server kind on top of the arm's own change.
type column struct {
	name   string
	split  *data.Split
	mutate func(*fed.Config)
}

// Cell is one measurement. Every arm fills the fields it can measure — a
// PTF-FedRec run all four, a baseline all but F1, a centralized model only
// Recall and NDCG — and the experiment's format says which are reported.
type Cell struct {
	Recall float64 `json:"recall"`
	NDCG   float64 `json:"ndcg"`
	F1     float64 `json:"f1"`    // Top Guess Attack F1 over the second half of training
	Bytes  float64 `json:"bytes"` // bytes per client-round, both ways: History.BytesPerClientRound or a baseline's payload
	Ratio  float64 `json:"ratio"` // ΔF1/ΔNDCG vs the no-defense row; set only by Table VI's derive step
}

// format names the Cell fields an experiment reports (by their JSON names, so
// a reader of -json knows which columns of the record carry a measurement)
// and renders them as one table cell.
type format struct {
	fields []string
	cell   func(Cell) string
}

var (
	fmtRecallNDCG = format{[]string{"recall", "ndcg"}, func(c Cell) string { return fmt.Sprintf("%.4f / %.4f", c.Recall, c.NDCG) }}
	fmtNDCG       = format{[]string{"ndcg"}, func(c Cell) string { return fmt.Sprintf("%.4f", c.NDCG) }}
	fmtF1NDCG     = format{[]string{"f1", "ndcg"}, func(c Cell) string { return fmt.Sprintf("F1=%.3f N=%.4f", c.F1, c.NDCG) }}
	fmtBytes      = format{[]string{"bytes"}, func(c Cell) string { return comm.FormatBytes(c.Bytes) }}
	fmtRatio      = format{[]string{"ratio"}, func(c Cell) string { return fmt.Sprintf("%.1f", c.Ratio) }}
)

var (
	modelKinds    = []models.Kind{models.KindNeuMF, models.KindNGCF, models.KindLightGCN}
	baselineNames = []string{"FCF", "FedMF", "MetaMF"}
)

// registry lists every experiment in the order `ptfbench -exp all` runs them.
// ExperimentIDs, ResultFor, the facade and the root benchmarks all read it.
var registry = []experiment{
	{id: "table2", title: table2Title, custom: func(o Options) (Renderer, error) { return RunTable2(o), nil }},
	{
		// Every centralized model, every baseline, and PTF-FedRec with every
		// server model.
		id: "table3", title: "Table III: recommendation performance (Recall@20 / NDCG@20)", rowHead: "method",
		arms: slices.Concat(each(modelKinds, centralArm), each(baselineNames, baselineArm),
			sweep("", "PTF-FedRec(%s)", modelKinds, func(c *fed.Config, k models.Kind) { c.ServerModel = k })),
		columns: datasets, format: fmtRecallNDCG,
	},
	{
		// PTF-FedRec's cost is the same for every server model (only
		// predictions travel), so it gets a single row, as in the paper.
		id: "table4", title: "Table IV: average communication cost per client per round", rowHead: "method",
		arms:    append(each(baselineNames, baselineArm), ptfArm("PTF-FedRec", models.KindNeuMF, nil)),
		columns: datasets, format: fmtBytes,
	},
	{
		id: "table5", title: "Table V: Top Guess Attack F1 (lower = better privacy) and NDCG@20", rowHead: "defense",
		arms: defenseArms, columns: datasets, format: fmtF1NDCG,
	},
	{
		id: "table6", title: "Table VI: defense cost-effectiveness ΔF1/ΔNDCG (higher is better)", rowHead: "defense",
		arms: defenseArms, columns: datasets, format: fmtRatio, derive: costEffectiveness,
	},
	{
		id: "table7", title: "Table VII: D̃ᵢ item-selection ablation (Recall@20 / NDCG@20)", rowHead: "strategy",
		arms: sweep(models.KindNGCF, "%s",
			[]fed.DisperseMode{fed.DisperseConfHard, fed.DisperseNoHard, fed.DisperseNoConf, fed.DisperseAllRandom},
			func(c *fed.Config, mode fed.DisperseMode) { c.Disperse = mode }),
		columns: datasets, format: fmtRecallNDCG,
	},
	{
		// The rows vary the client model and the columns (serverKinds) pick
		// the server, so the arms themselves name none.
		id: "table8", title: "Table VIII: NDCG@20 for client×server model combinations (MovieLens profile)", rowHead: `client\server`,
		arms:    sweep("", "%s", modelKinds, func(c *fed.Config, k models.Kind) { c.ClientModel = k }),
		columns: serverKinds, format: fmtNDCG,
	},
	{
		// The figure's three panels as consecutive rows: the β sampling
		// range, the γ range and the swap rate λ.
		id: "fig3", title: "Figure 3: privacy hyper-parameter sweeps (attack F1 / NDCG@20)", rowHead: "setting",
		arms: slices.Concat(
			sweep(models.KindNGCF, "β=%.1f", [][2]float64{{0.1, 1}, {0.3, 1}, {0.5, 1}, {0.7, 1}},
				func(c *fed.Config, r [2]float64) { c.Privacy.BetaMin, c.Privacy.BetaMax = r[0], r[1] }),
			sweep(models.KindNGCF, "γ=%d", [][2]int{{1, 4}, {2, 4}, {3, 4}, {4, 4}},
				func(c *fed.Config, r [2]int) { c.Privacy.GammaMin, c.Privacy.GammaMax = r[0], r[1] }),
			sweep(models.KindNGCF, "λ=%.2f", []float64{0.05, 0.1, 0.15, 0.2},
				func(c *fed.Config, l float64) { c.Privacy.Lambda = l })),
		columns: datasets, format: fmtF1NDCG,
	},
	{
		id: "fig4", title: "Figure 4: impact of dispersed-set size α on NDCG@20", rowHead: "setting",
		arms:    sweep(models.KindNGCF, "α=%d", []int{10, 30, 50, 70, 90}, func(c *fed.Config, a int) { c.Alpha = a }),
		columns: datasets, format: fmtNDCG,
	},
	{
		// The soft-positive threshold the server rebuilds its graph with is a
		// design choice the paper leaves open.
		id: "ablation-servergraph", title: "Ablation: server graph soft-positive threshold (LightGCN server, NDCG@20)", rowHead: "threshold",
		arms: sweep(models.KindLightGCN, "%.1f", []float64{0.3, 0.5, 0.7},
			func(c *fed.Config, th float64) { c.GraphThreshold = th }),
		columns: movieLens, format: fmtNDCG,
	},
	{
		// Two privacy/utility frontiers: swap noise over λ, Laplace noise over
		// its scale b.
		id: "ablation-noise", title: "Ablation: swap vs Laplace privacy/utility frontier (NGCF server)", rowHead: "noise",
		arms: slices.Concat(
			sweep(models.KindNGCF, "swap λ=%.2f", []float64{0.05, 0.1, 0.2, 0.4}, func(c *fed.Config, l float64) {
				c.Privacy.Defense = privacy.DefenseSamplingSwap
				c.Privacy.Lambda = l
			}),
			sweep(models.KindNGCF, "laplace b=%.2f", []float64{0.1, 0.25, 0.5, 1.0}, func(c *fed.Config, b float64) {
				c.Privacy.Defense = privacy.DefenseLDP
				c.Privacy.LaplaceScale = b
			})),
		columns: movieLens, format: fmtF1NDCG,
	},
	{id: "scalability", title: "Scalability", custom: func(o Options) (Renderer, error) { return RunScalability(o) }},
}

// defenseArms runs PTF-FedRec under each upload defense, no defense first
// (Table VI's baseline row): Tables V and VI share them.
var defenseArms = sweep(models.KindNGCF, "%s",
	[]privacy.Defense{privacy.DefenseNone, privacy.DefenseLDP, privacy.DefenseSampling, privacy.DefenseSamplingSwap},
	func(c *fed.Config, d privacy.Defense) { c.Privacy.Defense = d })

// ExperimentIDs lists every runnable experiment for the CLI.
var ExperimentIDs = func() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}()

// ---------------------------------------------------------------- columns

// datasets is the default axis: one column per evaluation dataset, each
// split built once for every arm to share.
func datasets(o Options) []column { return splitColumns(o, o.Profiles()) }

// movieLens is the single-dataset axis of the two extra ablations.
func movieLens(o Options) []column { return splitColumns(o, o.Profiles()[:1]) }

func splitColumns(o Options, profiles []data.Profile) []column {
	cols := make([]column, len(profiles))
	for i, p := range profiles {
		cols[i] = column{name: p.Name, split: o.split(p)}
	}
	return cols
}

// serverKinds is Table VIII's axis: the three server models on the MovieLens
// profile, so the grid is the paper's client × server matrix.
func serverKinds(o Options) []column {
	sp := o.split(o.Profiles()[0])
	cols := make([]column, len(modelKinds))
	for i, k := range modelKinds {
		cols[i] = column{name: string(k), split: sp, mutate: func(c *fed.Config) { c.ServerModel = k }}
	}
	return cols
}

// ------------------------------------------------------------------- arms

// ptfArm trains PTF-FedRec with the given server model and one change to the
// run's configuration (nil = the paper's defaults).
func ptfArm(label string, server models.Kind, mutate func(*fed.Config)) arm {
	return arm{label, func(o Options, col column) (Cell, error) {
		cfg := o.fedConfig(server)
		for _, m := range []func(*fed.Config){mutate, col.mutate} {
			if m != nil {
				m(&cfg)
			}
		}
		tr, err := fed.NewTrainer(col.split, cfg)
		if err != nil {
			return Cell{}, err
		}
		h, err := tr.Run()
		if err != nil {
			return Cell{}, err
		}
		return Cell{
			Recall: h.Final.Recall, NDCG: h.Final.NDCG,
			F1: lateRoundAttackF1(h), Bytes: h.BytesPerClientRound(),
		}, nil
	}}
}

// lateRoundAttackF1 averages the attack over the second half of training:
// it is scored on late-round uploads, once local models actually order
// positives above negatives.
func lateRoundAttackF1(h *fed.History) float64 {
	if len(h.Rounds) == 0 {
		return 0
	}
	late := h.Rounds[len(h.Rounds)/2:]
	var sum float64
	for _, rs := range late {
		sum += rs.AttackF1
	}
	return sum / float64(len(late))
}

// centralArm trains one model on the pooled data (Table III's upper bound).
func centralArm(kind models.Kind) arm {
	return arm{"Central-" + string(kind), func(o Options, col column) (Cell, error) {
		tr, err := central.NewTrainer(col.split, o.centralConfig(kind))
		if err != nil {
			return Cell{}, err
		}
		tr.Run()
		r := tr.Evaluate()
		return Cell{Recall: r.Recall, NDCG: r.NDCG}, nil
	}}
}

// baselineArm trains one parameter-transmission baseline.
func baselineArm(name string) arm {
	return arm{name, func(o Options, col column) (Cell, error) {
		cfg := o.baselineConfig()
		var b baselines.FederatedBaseline
		var err error
		switch name {
		case "FCF":
			b, err = baselines.NewFCF(col.split, cfg)
		case "FedMF":
			b, err = baselines.NewFedMF(col.split, cfg)
		case "MetaMF":
			b, err = baselines.NewMetaMF(col.split, cfg)
		default:
			err = fmt.Errorf("experiments: unknown baseline %q", name)
		}
		if err != nil {
			return Cell{}, err
		}
		baselines.Run(b)
		r := b.Evaluate()
		return Cell{Recall: r.Recall, NDCG: r.NDCG, Bytes: b.AvgBytesPerClientPerRound()}, nil
	}}
}

// each builds one arm per value.
func each[T any](values []T, mk func(T) arm) []arm {
	arms := make([]arm, len(values))
	for i, v := range values {
		arms[i] = mk(v)
	}
	return arms
}

// sweep builds one PTF-FedRec arm per value of a single setting: set applies
// the value to the run's configuration and label (a fmt verb for the value)
// names the row.
func sweep[T any](server models.Kind, label string, values []T, set func(*fed.Config, T)) []arm {
	return each(values, func(v T) arm {
		return ptfArm(fmt.Sprintf(label, v), server, func(c *fed.Config) { set(c, v) })
	})
}

// costEffectiveness turns Table V's grid into Table VI: each defense's
// ΔF1/ΔNDCG against the no-defense row, which it then drops. Higher means the
// defense buys more privacy per unit of lost utility.
func costEffectiveness(g *Grid) {
	base, rows := g.Rows[0], g.Rows[1:] // defenseArms lists no defense first
	for _, row := range rows {
		for i := range row.Cells {
			dF1 := base.Cells[i].F1 - row.Cells[i].F1
			dN := base.Cells[i].NDCG - row.Cells[i].NDCG
			if dN <= 1e-9 {
				dN = 1e-9 // defense cost ≈ free; report a large ratio
			}
			row.Cells[i].Ratio = dF1 / dN
		}
	}
	g.Rows = rows
}
