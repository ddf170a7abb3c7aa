package figures

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestStaticTables(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *core.Table
		rows int
	}{
		{"table1", Table1, 7},
		{"table2", Table2, 6},
		{"table3", Table3, 9},
		{"table4", Table4, 19},
		{"table5", Table5, 8},
		{"table6", Table6, 19},
		{"table7", Table7, 8},
	}
	for _, c := range cases {
		tab := c.gen()
		if len(tab.Rows) != c.rows {
			t.Errorf("%s: %d rows, want %d", c.name, len(tab.Rows), c.rows)
		}
		if tab.Title == "" {
			t.Errorf("%s: missing title", c.name)
		}
		out := tab.Render()
		if !strings.Contains(out, tab.Headers[0]) {
			t.Errorf("%s: render missing header", c.name)
		}
	}
}

func TestTable5MentionsE5645Geometry(t *testing.T) {
	out := Table5().Render()
	for _, want := range []string{"Intel Xeon E5645", "32 KB", "12 MB", "2.40G"} {
		if !strings.Contains(out, want) {
			t.Errorf("table5 missing %q:\n%s", want, out)
		}
	}
	out7 := Table7().Render()
	for _, want := range []string{"Intel Xeon E5310", "None", "1.60G"} {
		if !strings.Contains(out7, want) {
			t.Errorf("table7 missing %q", want)
		}
	}
}

func TestTable3MatchesSchema(t *testing.T) {
	out := Table3().Render()
	for _, col := range []string{"ORDER_ID", "BUYER_ID", "CREATE_DATE",
		"ITEM_ID", "GOODS_ID", "GOODS_NUMBER", "GOODS_PRICE", "GOODS_AMOUNT"} {
		if !strings.Contains(out, col) {
			t.Errorf("table3 missing column %s", col)
		}
	}
}

func TestArtifactPlumbing(t *testing.T) {
	order := ArtifactOrder()
	if len(order) != 15 {
		t.Fatalf("artifact order has %d entries", len(order))
	}
	tables := AllTables()
	for name := range tables {
		found := false
		for _, o := range order {
			if o == name {
				found = true
			}
		}
		if !found {
			t.Errorf("table %s not in artifact order", name)
		}
	}
	if NormalizeArtifact(" Fig6-1 ") != "fig6_1" {
		t.Error("NormalizeArtifact broken")
	}
}

// tinyCfg is a minimal-cost figure config for plumbing tests.
func tinyCfg() Config {
	return Config{
		Base: core.Input{
			ScaleUnit:     1 << 12,
			PagesPerMPage: 20,
			ReqsPerUnit:   20,
			VertexUnit:    1 << 9,
			Seed:          3,
			Workers:       2,
		},
		CharScale:  1,
		LargeScale: 4,
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float cell %q", s)
	}
	return v
}

func TestFig2Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation")
	}
	t.Parallel()
	tab, err := tinyCfg().Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 20 { // 19 workloads + Avg
		t.Fatalf("fig2 rows = %d", len(tab.Rows))
	}
	if tab.Rows[19][0] != "Avg_BigData" {
		t.Fatal("fig2 missing Avg row")
	}
	for _, row := range tab.Rows {
		parseF(t, row[1])
		parseF(t, row[2])
	}
}

func TestFig3Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation")
	}
	t.Parallel()
	cfg := tinyCfg()
	mips, err := cfg.Fig3MIPS()
	if err != nil {
		t.Fatal(err)
	}
	if len(mips.Rows) != 19 || len(mips.Rows[0]) != 6 {
		t.Fatalf("fig3-1 shape %dx%d", len(mips.Rows), len(mips.Rows[0]))
	}
	sp, err := cfg.Fig3Speedup()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range sp.Rows {
		if base := parseF(t, row[1]); base != 1 {
			t.Errorf("%s: baseline speedup %f, want 1", row[0], base)
		}
	}
}

func TestFig4AndFig6Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation")
	}
	t.Parallel()
	cfg := tinyCfg()
	f4, err := cfg.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	// 19 workloads + Avg_BigData + 4 comparator suites.
	if len(f4.Rows) != 24 {
		t.Fatalf("fig4 rows = %d", len(f4.Rows))
	}
	for _, row := range f4.Rows {
		sum := 0.0
		for _, cell := range row[1:6] {
			sum += parseF(t, cell)
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: mix fractions sum to %f", row[0], sum)
		}
	}
	f6, err := cfg.Fig6Cache()
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Rows) != 24 {
		t.Fatalf("fig6-1 rows = %d", len(f6.Rows))
	}
	f6t, err := cfg.Fig6TLB()
	if err != nil {
		t.Fatal(err)
	}
	if len(f6t.Rows) != 24 {
		t.Fatalf("fig6-2 rows = %d", len(f6t.Rows))
	}
}

func TestFig5Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation")
	}
	t.Parallel()
	tab, err := tinyCfg().Fig5("fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 24 {
		t.Fatalf("fig5 rows = %d", len(tab.Rows))
	}
	if tab.Headers[1] != "E5310" || tab.Headers[2] != "E5645" {
		t.Fatal("fig5 must report both machine models")
	}
}
