package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCountAtOrBelowRoundsDown(t *testing.T) {
	h := &Histogram{}
	h.Observe(500 * time.Nanosecond) // bucket 0 (≤1µs)
	h.Observe(2 * time.Microsecond)  // bucket 1 (≤2µs)
	h.Observe(3 * time.Microsecond)  // bucket 2 (≤4µs)
	h.Observe(time.Second)           // way up

	good, total, eff := h.CountAtOrBelow(3 * time.Microsecond)
	if eff != 2*time.Microsecond {
		t.Fatalf("effective = %v, want rounded down to 2µs", eff)
	}
	// Conservative: the 3µs observation sits in the (2µs,4µs] bucket,
	// which is not entirely ≤ 3µs, so it must not count as good.
	if good != 2 || total != 4 {
		t.Fatalf("good/total = %d/%d, want 2/4", good, total)
	}

	good, _, eff = h.CountAtOrBelow(4 * time.Microsecond)
	if eff != 4*time.Microsecond || good != 3 {
		t.Fatalf("at 4µs: good=%d eff=%v, want 3 good at exact bound", good, eff)
	}

	good, total, eff = h.CountAtOrBelow(100 * time.Nanosecond)
	if good != 0 || eff != 0 || total != 4 {
		t.Fatalf("sub-bucket threshold: good=%d eff=%v total=%d", good, eff, total)
	}

	// +Inf bucket never counts good regardless of threshold.
	good, _, _ = h.CountAtOrBelow(time.Hour)
	if good != 4 {
		t.Fatalf("huge threshold: good=%d, want all finite-bucket obs", good)
	}
}

func TestSLOBurnRates(t *testing.T) {
	h := &Histogram{}
	s := NewSLO(time.Minute, 5*time.Minute)
	defer s.Stop()
	s.AddObjective(Objective{Name: "put-p999", Hist: h, Threshold: time.Millisecond, Target: 0.999})

	now := time.Unix(1700000000, 0)
	// Warm history: 1000 good requests, sampled.
	for i := 0; i < 1000; i++ {
		h.Observe(100 * time.Microsecond)
	}
	s.SampleAt(now)

	// Over the next minute: 99 good + 1 bad = 1% bad against a 0.1%
	// budget -> burn 10x on the 1m window.
	for i := 0; i < 99; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.Observe(10 * time.Millisecond)
	s.SampleAt(now.Add(30 * time.Second))

	reports := s.ReportAt(now.Add(time.Minute))
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	r := reports[0]
	if r.Total != 1100 || r.Good != 1099 {
		t.Fatalf("lifetime good/total = %d/%d", r.Good, r.Total)
	}
	// Buckets are powers of two in µs: 1ms rounds down to the 512µs bound.
	if r.EffectiveNs != int64(512*time.Microsecond) {
		t.Fatalf("effective = %v, want 512µs", time.Duration(r.EffectiveNs))
	}
	if len(r.Windows) != 2 {
		t.Fatalf("windows = %d", len(r.Windows))
	}
	w1 := r.Windows[0]
	if !w1.Valid || w1.Requests != 100 || w1.Bad != 1 {
		t.Fatalf("1m window = %+v, want valid 100 req / 1 bad", w1)
	}
	if math.Abs(w1.Burn-10.0) > 1e-9 {
		t.Fatalf("1m burn = %v, want 10.0 (1%% bad / 0.1%% budget)", w1.Burn)
	}
	// 5m window has only 1 minute of history: partial, flagged invalid,
	// burn still computed over what's covered.
	w5 := r.Windows[1]
	if w5.Valid {
		t.Fatalf("5m window valid with 1m of history: %+v", w5)
	}
	if w5.Requests != 100 {
		t.Fatalf("5m window falls back to oldest sample: %+v", w5)
	}
}

func TestSLOHandlerAndFormat(t *testing.T) {
	h := &Histogram{}
	h.Observe(time.Millisecond)
	s := NewSLO()
	defer s.Stop()
	s.AddObjective(Objective{Name: "get-p99", Hist: h, Threshold: 5 * time.Millisecond, Target: 0.99})
	s.SampleAt(time.Unix(1700000000, 0))

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/sloz", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var reports []SLOReport
	if err := json.Unmarshal(rec.Body.Bytes(), &reports); err != nil {
		t.Fatalf("bad /sloz JSON: %v\n%s", err, rec.Body.String())
	}
	if len(reports) != 1 || reports[0].Name != "get-p99" || reports[0].Compliance != 1 {
		t.Fatalf("bad report %+v", reports)
	}

	out := FormatSLO(reports)
	if !strings.Contains(out, "get-p99") || !strings.Contains(out, "burn[") {
		t.Fatalf("summary line missing fields: %q", out)
	}
}

func TestSLOStartStop(t *testing.T) {
	h := &Histogram{}
	s := NewSLO(time.Minute)
	s.AddObjective(Objective{Name: "x", Hist: h, Threshold: time.Millisecond, Target: 0.9})
	s.Start(time.Second) // min interval clamps; just exercise start/stop
	s.Stop()
	s.Stop() // idempotent
}

func TestParseObjective(t *testing.T) {
	cases := []struct {
		spec      string
		threshold time.Duration
		target    float64
		wantErr   string // substring; "" = no error
	}{
		{"5ms:0.999", 5 * time.Millisecond, 0.999, ""},
		{"", 0, 0, ""}, // no objective
		{"5ms", 0, 0, "want <threshold>:<target>"},
		{"0s:0.99", 0, 0, "not a positive duration"},
		{"-5ms:0.99", 0, 0, "not a positive duration"},
		{"fast:0.99", 0, 0, "not a positive duration"},
		{"5ms:0", 0, 0, "not a fraction in (0,1)"},
		{"5ms:1", 0, 0, "not a fraction in (0,1)"},
		{"5ms:1.5", 0, 0, "not a fraction in (0,1)"},
		{"5ms:-0.5", 0, 0, "not a fraction in (0,1)"},
		{"5ms:most", 0, 0, "not a fraction in (0,1)"},
	}
	for _, c := range cases {
		threshold, target, err := ParseObjective(c.spec)
		if c.wantErr == "" {
			if err != nil || threshold != c.threshold || target != c.target {
				t.Errorf("ParseObjective(%q) = %v, %v, %v; want %v, %v, nil", c.spec, threshold, target, err, c.threshold, c.target)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ParseObjective(%q) error = %v, want one containing %q", c.spec, err, c.wantErr)
		}
		if threshold != 0 || target != 0 {
			t.Errorf("ParseObjective(%q) = %v, %v alongside an error; want zeros", c.spec, threshold, target)
		}
	}
}
