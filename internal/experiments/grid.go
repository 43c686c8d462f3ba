package experiments

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"ptffedrec/internal/data"
)

// Renderer is implemented by every experiment result: Print writes the
// paper-style table. The concrete types behind it are plain structs, so they
// also serialise directly to JSON (ptfbench -json).
type Renderer interface {
	Print(w io.Writer)
}

// Grid is the result of every method × column experiment, and the one JSON
// schema `ptfbench -json` emits for them: Rows[i].Cells[j] is arm i measured
// on Columns[j], and Fields names the Cell fields the experiment reports.
type Grid struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Fields  []string `json:"fields"`
	Columns []string `json:"columns"`
	Rows    []Row    `json:"rows"`
}

// Row is one arm's measurements along the column axis.
type Row struct {
	Label string `json:"label"`
	Cells []Cell `json:"cells"`
}

// lookup finds a registered experiment by id.
func lookup(id string) *experiment {
	for i := range registry {
		if registry[i].id == id {
			return &registry[i]
		}
	}
	return nil
}

// ResultFor executes one experiment by id and returns its result.
func ResultFor(id string, o Options) (Renderer, error) {
	e := lookup(id)
	switch {
	case e == nil:
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, ExperimentIDs)
	case e.custom != nil:
		return e.custom(o)
	}
	return e.runGrid(o)
}

// Run executes one experiment by id and prints its result to w. It is the
// entry point behind the facade's RunExperiment and the root-level benchmarks.
func Run(id string, o Options, w io.Writer) error {
	res, err := ResultFor(id, o)
	if err != nil {
		return err
	}
	res.Print(w)
	return nil
}

// runGrid builds the experiment's columns once and runs every arm on each.
// The runs are independent seeded trainings, so the order they execute in
// never shows in a cell.
func (e *experiment) runGrid(o Options) (*Grid, error) {
	cols := e.columns(o)
	g := &Grid{ID: e.id, Title: e.title, Fields: e.format.fields}
	for _, col := range cols {
		g.Columns = append(g.Columns, col.name)
	}
	for _, a := range e.arms {
		row := Row{Label: a.label}
		for _, col := range cols {
			o.logf("%s: %s / %s\n", e.id, a.label, col.name)
			c, err := a.run(o, col)
			if err != nil {
				return nil, fmt.Errorf("%s %s on %s: %w", e.id, a.label, col.name, err)
			}
			row.Cells = append(row.Cells, c)
		}
		g.Rows = append(g.Rows, row)
	}
	if e.derive != nil {
		e.derive(g)
	}
	return g, nil
}

// Print renders the grid in the paper's layout — a row per method, a column
// per dataset (per server model for Table VIII) — with the experiment's cell
// format, every column as wide as its widest entry.
func (g *Grid) Print(w io.Writer) {
	e := lookup(g.ID)
	lines := [][]string{append([]string{e.rowHead}, g.Columns...)}
	for _, row := range g.Rows {
		line := []string{row.Label}
		for _, c := range row.Cells {
			line = append(line, e.format.cell(c))
		}
		lines = append(lines, line)
	}
	width := make([]int, len(lines[0]))
	for _, line := range lines {
		for i, s := range line {
			width[i] = max(width[i], utf8.RuneCountInString(s))
		}
	}
	fmt.Fprintln(w, g.Title)
	for _, line := range lines {
		text := fmt.Sprintf("  %-*s", width[0], line[0])
		for i, s := range line[1:] {
			text += fmt.Sprintf(" | %-*s", width[i+1], s)
		}
		fmt.Fprintln(w, strings.TrimRight(text, " "))
	}
}

// ---------------------------------------------------------------- Table II

const table2Title = "Table II: dataset statistics"

// Table2Result holds the dataset statistics rows.
type Table2Result struct {
	Stats []data.Stats
}

// RunTable2 regenerates the dataset statistics table.
func RunTable2(o Options) Table2Result {
	var res Table2Result
	for _, p := range o.Profiles() {
		res.Stats = append(res.Stats, data.Generate(p, o.Seed).Stats())
	}
	return res
}

// Print renders the table.
func (r Table2Result) Print(w io.Writer) {
	fmt.Fprintln(w, table2Title)
	for _, s := range r.Stats {
		fmt.Fprintf(w, "  %s\n", s)
	}
}
