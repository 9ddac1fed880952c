package evaluate

import (
	"strings"
	"sync"
	"testing"

	"extractocol/internal/siglang"
)

// results are computed once; the full corpus evaluation is the expensive
// fixture every test here shares.
var (
	resultsOnce sync.Once
	resultsAll  []*AppResult
	resultsErr  error
)

func allResults(t *testing.T) []*AppResult {
	t.Helper()
	resultsOnce.Do(func() { resultsAll, resultsErr = RunAll() })
	if resultsErr != nil {
		t.Fatal(resultsErr)
	}
	return resultsAll
}

func TestTable1CoversAllApps(t *testing.T) {
	rows := Table1(allResults(t))
	if len(rows) != 34 {
		t.Fatalf("rows = %d, want 34", len(rows))
	}
	text := FormatTable1(rows)
	for _, name := range []string{"Diode", "radio reddit", "TED", "KAYAK", "Pinterest"} {
		if !strings.Contains(text, name) {
			t.Errorf("Table 1 missing %s", name)
		}
	}
}

// The paper's headline: Extractocol provides higher coverage than dynamic
// fuzzing, and manual fuzzing beats automatic fuzzing.
func TestCoverageOrderingHolds(t *testing.T) {
	open := Figure6(allResults(t), true)
	closed := Figure6(allResults(t), false)

	if !(closed.URIs.E > closed.URIs.M && closed.URIs.M > closed.URIs.A) {
		t.Errorf("closed-source URI ordering violated: %+v", closed.URIs)
	}
	if !(open.URIs.E >= open.URIs.M && open.URIs.M >= open.URIs.A) {
		t.Errorf("open-source URI ordering violated: %+v", open.URIs)
	}
	// Closed-source advantage should be substantial (paper: 1058 vs 402
	// URIs, roughly 2.6x; shape: comfortably more than 1.5x).
	if float64(closed.URIs.E) < 1.5*float64(closed.URIs.M) {
		t.Errorf("Extractocol advantage too small: %d vs %d", closed.URIs.E, closed.URIs.M)
	}
}

func TestFigure7KeywordOrdering(t *testing.T) {
	closed := Figure7(allResults(t), false)
	if !(closed.Request.E > closed.Request.M && closed.Request.M > closed.Request.A) {
		t.Errorf("closed-source request keyword ordering violated: %+v", closed.Request)
	}
	// Paper: 7793 Extractocol vs 3507 manual-trace request keywords (2.2x).
	if float64(closed.Request.E) < 1.2*float64(closed.Request.M) {
		t.Errorf("keyword advantage too small: %+v", closed.Request)
	}
	open := Figure7(allResults(t), true)
	// Open source: Extractocol ~= source code truth, within one keyword of
	// manual traces (the paper's 144-of-145 RRD case).
	if open.Request.E < open.Request.M-2 {
		t.Errorf("open-source request keywords: %+v", open.Request)
	}
}

func TestTable2FractionsReasonable(t *testing.T) {
	for _, openSource := range []bool{true, false} {
		s := Table2(allResults(t), openSource)
		rk, rv, rn := s.Request.Fractions()
		if s.Request.Total() == 0 {
			t.Fatalf("no request bytes accounted (open=%v)", openSource)
		}
		// Paper: Rk+Rv covers >= 79% of request bytes for both halves.
		if rk+rv < 0.75 {
			t.Errorf("request Rk+Rv = %.2f (open=%v)", rk+rv, openSource)
		}
		_, _, respRn := s.Response.Fractions()
		if s.Response.Total() == 0 {
			t.Fatalf("no response bytes accounted (open=%v)", openSource)
		}
		// Responses contain unread keys: Rn must be nonzero but bounded.
		if respRn <= 0 || respRn > 0.8 {
			t.Errorf("response Rn = %.2f (open=%v)", respRn, openSource)
		}
		_ = rn
	}
}

// TestTable2AndValidityPinned pins the raw byte counts behind Table 2 and
// the §5.1 validity totals. TestTable2FractionsReasonable checks only
// loose bounds on rounded fractions, so a matcher change that moved a
// few bytes between Rk, Rv and Rn would pass it unnoticed.
func TestTable2AndValidityPinned(t *testing.T) {
	results := allResults(t)
	want := map[bool]Table2Stats{
		true: {
			Request:  siglang.ByteStats{Key: 1332, Value: 778, None: 0},
			Response: siglang.ByteStats{Key: 2952, Value: 2781, None: 207},
		},
		false: {
			Request:  siglang.ByteStats{Key: 12997, Value: 7810, None: 0},
			Response: siglang.ByteStats{Key: 14129, Value: 15065, None: 14778},
		},
	}
	for _, openSource := range []bool{true, false} {
		if got := Table2(results, openSource); got != want[openSource] {
			t.Errorf("Table2(open=%v) = %+v, want %+v", openSource, got, want[openSource])
		}
	}
	wantV := ValiditySummary{Apps: 34, SigsWithTraffic: 747, SigsValid: 747, UnmatchedTraces: 32, Pairs: 739}
	if got := Validity(results); got != wantV {
		t.Errorf("Validity = %+v, want %+v", got, wantV)
	}
}

func TestValiditySummary(t *testing.T) {
	v := Validity(allResults(t))
	if v.Apps != 34 {
		t.Fatalf("apps = %d", v.Apps)
	}
	if v.SigsValid != v.SigsWithTraffic {
		t.Errorf("invalid signatures: %d of %d", v.SigsWithTraffic-v.SigsValid, v.SigsWithTraffic)
	}
	// The paper reconstructs 971 pairs across its corpus; ours must be in
	// the hundreds as well.
	if v.Pairs < 400 {
		t.Errorf("pairs = %d, want several hundred", v.Pairs)
	}
}

func TestTable5KayakCategories(t *testing.T) {
	rows, rep, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	total := map[string]int{}
	for _, tx := range rep.Transactions {
		total[tx.Request.Method]++
	}
	if total["GET"] != 39 || total["POST"] != 7 {
		t.Fatalf("scoped Kayak = %d GET / %d POST, want 39/7", total["GET"], total["POST"])
	}
	// The ad library must be excluded by scoping.
	for _, tx := range rep.Transactions {
		if strings.Contains(tx.URIRegex(), "admarvel") {
			t.Fatal("external ad library leaked into scoped analysis")
		}
	}
	byPrefix := map[string]int{}
	for _, r := range rows {
		byPrefix[r.Method+" "+r.Prefix] += r.Count
	}
	if byPrefix["GET /trips/v2"] != 11 || byPrefix["GET /h/mobileapis"] != 12 {
		t.Fatalf("category counts wrong: %v", byPrefix)
	}
}

func TestTable6SignaturesPresent(t *testing.T) {
	text, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"authajax",
		"action=registerandroid&uuid=",
		"flight/start\\?cabin=",
		"flight/poll\\?searchid=",
		"User-Agent: kayakandroidphone/8\\.1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 6 missing %q:\n%s", want, text)
		}
	}
}

func TestObfuscationInvariance(t *testing.T) {
	identical, total, err := ObfuscationCheck()
	if err != nil {
		t.Fatal(err)
	}
	if total != 14 {
		t.Fatalf("total open-source apps = %d", total)
	}
	if identical != total {
		t.Errorf("only %d of %d apps invariant under obfuscation", identical, total)
	}
}

func TestAsyncHeuristicAblation(t *testing.T) {
	disabled, enabled, err := AsyncHeuristicAblation()
	if err != nil {
		t.Fatal(err)
	}
	if enabled <= disabled {
		t.Fatalf("heuristic gained nothing: disabled=%d enabled=%d", disabled, enabled)
	}
}

func TestDiodeSliceFractionSmall(t *testing.T) {
	frac, err := DiodeSliceFraction()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 6.3%; a generative corpus is denser in protocol
	// code, so just require a strict, informative fraction.
	if frac <= 0 || frac >= 0.95 {
		t.Fatalf("slice fraction = %.3f", frac)
	}
}

func TestCaseStudyRenderings(t *testing.T) {
	t3, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"api/login", "unsave", "vote", "modhash"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table 3 missing %q", want)
		}
	}
	t4, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"speakers\\.json", "android_ad\\.json", "media", "db:talks.thumbnail"} {
		if !strings.Contains(t4, want) {
			t.Errorf("Table 4 missing %q:\n%s", want, t4)
		}
	}
}

func TestTimingReport(t *testing.T) {
	out := Timing(allResults(t))
	if !strings.Contains(out, "mean:") {
		t.Fatalf("timing report incomplete:\n%s", out)
	}
}
