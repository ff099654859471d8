package bench

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"strings"
)

// ResultsSchema identifies the BENCH_results.json wire format; bump the
// version suffix on any incompatible change. The schema is documented in
// EXPERIMENTS.md.
const ResultsSchema = "splitmem-bench/v2"

// Results is the machine-readable form of a benchmark run: every table and
// figure the run produced, in the order produced, and the host that
// produced them. Marshals to the BENCH_results.json document consumed by
// CI and plotting scripts.
type Results struct {
	Schema  string         `json:"schema"`
	Host    Host           `json:"host"`
	Tables  []TableResult  `json:"tables"`
	Figures []FigureResult `json:"figures"`
}

// Host describes the machine a run was measured on: every host-timed
// number in the document is only comparable against the same host.
type Host struct {
	CPU        string `json:"cpu"` // CPU model name, or "unknown"
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// thisHost reads the running machine's Host block.
func thisHost() Host {
	h := Host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// TableResult is one rendered table.
type TableResult struct {
	ID     string     `json:"id"` // stable experiment id ("table3")
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// FigureResult is one rendered figure.
type FigureResult struct {
	ID     string         `json:"id"` // stable experiment id ("fig6" ... "fig9")
	Title  string         `json:"title"`
	YLabel string         `json:"ylabel"`
	Series []SeriesResult `json:"series"`
	Notes  []string       `json:"notes,omitempty"`
}

// SeriesResult is one named line of a figure.
type SeriesResult struct {
	Name   string    `json:"name"`
	Labels []string  `json:"labels"`
	Values []float64 `json:"values"`
}

// NewResults creates an empty results document.
func NewResults() *Results {
	return &Results{
		Schema:  ResultsSchema,
		Host:    thisHost(),
		Tables:  []TableResult{},
		Figures: []FigureResult{},
	}
}

// AddTable appends a table under a stable experiment id.
func (r *Results) AddTable(id string, t *Table) {
	r.Tables = append(r.Tables, TableResult{
		ID:     id,
		Title:  t.Title,
		Header: t.Header,
		Rows:   t.Rows,
		Notes:  t.Notes,
	})
}

// AddFigure appends a figure under a stable experiment id.
func (r *Results) AddFigure(id string, f *Figure) {
	fr := FigureResult{
		ID:     id,
		Title:  f.Title,
		YLabel: f.YLabel,
		Notes:  f.Notes,
	}
	for _, s := range f.Series {
		fr.Series = append(fr.Series, SeriesResult{Name: s.Name, Labels: s.Labels, Values: s.Values})
	}
	r.Figures = append(r.Figures, fr)
}

// WriteJSON writes the document as indented JSON.
func (r *Results) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
