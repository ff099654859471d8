package bench

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "y"}, {"1", "22222"}},
		Notes:  []string{"hello"},
	}
	out := tab.Render()
	for _, want := range []string{"T\n", "a", "bb", "xxx", "22222", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFigureRender(t *testing.T) {
	fig := &Figure{
		Title: "F",
		Series: []Series{{
			Name:   "s",
			Labels: []string{"one", "two"},
			Values: []float64{1.0, 0.5},
		}, {
			Name:   "big",
			Labels: []string{"work", "half"},
			Values: []float64{91771.476, 45885.738},
		}},
		Notes: []string{"n"},
	}
	out := fig.Render()
	for _, want := range []string{"F\n", "one", "0.500", "########", "91771.476", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if len(line) > 80 {
			t.Fatalf("unbounded bar (%d chars): %.100s...", len(line), line)
		}
		if strings.Contains(line, "work") && strings.Count(line, "#") != barWidth {
			t.Fatalf("series maximum not drawn at full width: %q", line)
		}
	}
}

func TestTable3Static(t *testing.T) {
	out := Table3().Render()
	for _, want := range []string{"Table 3", "ITLB / DTLB", "PIII", "4 KiB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

// TestTable1EndToEnd regenerates the full Table 1 and asserts the paper's
// claim: every applicable attack foiled.
func TestTable1EndToEnd(t *testing.T) {
	tab, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Render()
	if strings.Contains(out, "BREACHED") {
		t.Fatalf("table contains a breach:\n%s", out)
	}
	if !strings.Contains(out, "Return address") || !strings.Contains(out, "Longjmp buffer parameter") {
		t.Fatalf("table incomplete:\n%s", out)
	}
}

// TestTable2EndToEnd regenerates Table 2 and asserts all exploits work
// unprotected and are foiled under split memory.
func TestTable2EndToEnd(t *testing.T) {
	tab, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Render()
	if strings.Contains(out, "WARNING") {
		t.Fatalf("table contains warnings:\n%s", out)
	}
	if strings.Count(out, "root shell") != 5 {
		t.Fatalf("expected 5 unprotected shells:\n%s", out)
	}
	if strings.Count(out, "foiled") != 5 {
		t.Fatalf("expected 5 foiled:\n%s", out)
	}
}

// TestFig5EndToEnd renders the response-mode demonstrations.
func TestFig5EndToEnd(t *testing.T) {
	out, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"break mode", "observe mode", "forensics mode",
		"exploit failed", "rootshell", "first 20 bytes",
		"[sebek]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig5 missing %q", want)
		}
	}
}

// TestFig7Shape runs the cheap stress figure and verifies the paper's
// qualitative claim (both tests collapse to roughly half speed).
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs guest workloads")
	}
	fig, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fig.Series[0].Values {
		if v > 0.75 || v < 0.2 {
			t.Fatalf("%s = %.3f out of the stress band", fig.Series[0].Labels[i], v)
		}
	}
}

// TestFig8Monotone asserts the page-size sweep's defining shape: normalized
// performance must trend upward toward parity as responses grow (small
// violations within noise are tolerated).
func TestFig8Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	fig, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	vals := fig.Series[0].Values
	if len(vals) < 4 {
		t.Fatalf("sweep too short: %v", vals)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1]-0.02 {
			t.Fatalf("non-monotone at %s: %.3f -> %.3f (%v)",
				fig.Series[0].Labels[i], vals[i-1], vals[i], vals)
		}
	}
	if vals[0] > 0.7 {
		t.Fatalf("1K page should be ctxsw-bound: %.3f", vals[0])
	}
	if last := vals[len(vals)-1]; last < 0.85 {
		t.Fatalf("largest page should approach parity: %.3f", last)
	}
}

// TestFig6Bands pins the Fig. 6 results to the paper's qualitative bands.
func TestFig6Bands(t *testing.T) {
	if testing.Short() {
		t.Skip("workloads are slow")
	}
	fig, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	vals := fig.Series[0].Values // apache-32K, gzip, nbench, unixbench
	if vals[2] < 0.95 {
		t.Fatalf("nbench should be near parity: %.3f", vals[2])
	}
	for i, name := range []string{"apache-32K", "gzip"} {
		if vals[i] < 0.75 || vals[i] > 0.97 {
			t.Fatalf("%s = %.3f outside the 80-90%% band", name, vals[i])
		}
	}
	if vals[3] < 0.6 || vals[3] > 0.9 {
		t.Fatalf("unixbench = %.3f outside its band", vals[3])
	}
	// Ordering: compute fastest, unixbench slowest.
	if !(vals[2] > vals[0] && vals[2] > vals[1] && vals[3] < vals[0] && vals[3] < vals[1]) {
		t.Fatalf("ordering violated: %v", vals)
	}
}
