package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SLO tracking layered over the latency histograms the hot paths
// already feed. An objective is "fraction of requests at or below a
// latency threshold ≥ target"; the tracker derives good/bad counts from
// the histogram's cumulative buckets (no extra hot-path work at all)
// and reports multi-window burn rates — how fast the error budget is
// being spent relative to the rate that would exactly exhaust it —
// the SRE-workbook alerting signal.

// CountAtOrBelow returns how many observations were at or below d,
// along with the total observation count and the effective threshold
// actually applied. Because buckets are power-of-two sized, d is
// rounded DOWN to the nearest bucket upper bound: an observation only
// counts as good when its whole bucket is within d, so the result
// never overstates compliance. The effective (rounded) threshold is
// returned so callers can report what was really measured.
func (h *Histogram) CountAtOrBelow(d time.Duration) (good, total uint64, effective time.Duration) {
	total = h.count.Load()
	if d < time.Microsecond {
		return 0, total, 0
	}
	for i := 0; i < HistBuckets; i++ {
		b := BucketBound(i)
		if b > d {
			break
		}
		good += h.buckets[i].Load()
		effective = b
	}
	// Bucket loads race with Observe's three separate adds; clamp so a
	// mid-update read can't report more good than total.
	if good > total {
		good = total
	}
	return good, total, effective
}

// Objective is one latency SLO: at least Target (e.g. 0.999) of the
// requests observed by Hist complete within Threshold.
type Objective struct {
	Name      string
	Hist      *Histogram
	Threshold time.Duration
	Target    float64 // in (0,1)
}

// ParseObjective parses an objective's <threshold>:<target> form, e.g.
// "5ms:0.999" — the spec the -slo flags of bdserve and bdbench take. An
// empty spec is no objective: a zero threshold and no error.
func ParseObjective(spec string) (threshold time.Duration, target float64, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	thr, tgt, ok := strings.Cut(spec, ":")
	if !ok {
		return 0, 0, fmt.Errorf("SLO %q: want <threshold>:<target>, e.g. 5ms:0.999", spec)
	}
	threshold, err = time.ParseDuration(thr)
	if err != nil || threshold <= 0 {
		return 0, 0, fmt.Errorf("SLO %q: threshold %q is not a positive duration", spec, thr)
	}
	target, err = strconv.ParseFloat(tgt, 64)
	if err != nil || target <= 0 || target >= 1 {
		return 0, 0, fmt.Errorf("SLO %q: target %q is not a fraction in (0,1)", spec, tgt)
	}
	return threshold, target, nil
}

type sloSample struct {
	at    time.Time
	good  uint64
	total uint64
}

type objectiveState struct {
	Objective
	effective time.Duration
	samples   []sloSample // oldest first, pruned past the largest window
}

// SLO tracks a set of latency objectives over shared histograms. Counts
// are sampled periodically (Start, or SampleAt from tests) into small
// per-objective rings; burn rates over each window come from the delta
// between the live counters and the sample closest to the window's far
// edge. The tracker itself touches no request path — it only reads
// histogram atomics at sample/report time.
type SLO struct {
	mu      sync.Mutex
	windows []time.Duration // ascending
	objs    []*objectiveState
	stop    chan struct{}
	once    sync.Once
}

// DefaultSLOWindows are the burn-rate windows used when none are given:
// a fast window that reacts to incidents and slower ones that catch
// sustained budget bleed.
var DefaultSLOWindows = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}

// NewSLO returns a tracker computing burn rates over the given windows
// (DefaultSLOWindows when empty).
func NewSLO(windows ...time.Duration) *SLO {
	if len(windows) == 0 {
		windows = append([]time.Duration(nil), DefaultSLOWindows...)
	}
	for i := 1; i < len(windows); i++ {
		for j := i; j > 0 && windows[j] < windows[j-1]; j-- {
			windows[j], windows[j-1] = windows[j-1], windows[j]
		}
	}
	return &SLO{windows: windows, stop: make(chan struct{})}
}

// AddObjective registers one objective. The histogram is shared with
// whatever hot path already feeds it; the tracker never writes to it.
func (s *SLO) AddObjective(o Objective) {
	_, _, eff := o.Hist.CountAtOrBelow(o.Threshold)
	if eff == 0 {
		// CountAtOrBelow reports effective=0 on an empty histogram too;
		// compute the rounded threshold directly so reports are stable.
		for i := 0; i < HistBuckets; i++ {
			if b := BucketBound(i); b <= o.Threshold {
				eff = b
			} else {
				break
			}
		}
	}
	s.mu.Lock()
	s.objs = append(s.objs, &objectiveState{Objective: o, effective: eff})
	s.mu.Unlock()
}

// SampleAt records one counter sample per objective, pruning history
// older than the largest window. Exposed (rather than only the Start
// ticker) so tests can drive deterministic clocks.
func (s *SLO) SampleAt(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := s.windows[len(s.windows)-1] + s.windows[0]
	for _, o := range s.objs {
		good, total, _ := o.Hist.CountAtOrBelow(o.effective)
		o.samples = append(o.samples, sloSample{at: now, good: good, total: total})
		cut := 0
		for cut < len(o.samples)-1 && now.Sub(o.samples[cut].at) > keep {
			cut++
		}
		if cut > 0 {
			o.samples = append(o.samples[:0], o.samples[cut:]...)
		}
	}
}

// Start launches a sampling goroutine at the given interval (minimum
// 1s). Stop terminates it.
func (s *SLO) Start(interval time.Duration) {
	if interval < time.Second {
		interval = time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				s.SampleAt(now)
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop halts the Start goroutine. Safe to call more than once.
func (s *SLO) Stop() { s.once.Do(func() { close(s.stop) }) }

// BurnWindow is one window's burn rate within a report. Burn 1.0 means
// the error budget is being spent exactly at the rate that exhausts it
// by the end of the SLO period; >1 is over-budget. Valid is false when
// the sample history does not yet reach back a full window (the rate is
// then computed over whatever span is covered).
type BurnWindow struct {
	Window   string  `json:"window"`
	SpanNs   int64   `json:"spanNs"` // history actually covered
	Requests uint64  `json:"requests"`
	Bad      uint64  `json:"bad"`
	Burn     float64 `json:"burnRate"`
	Valid    bool    `json:"valid"`
}

// SLOReport is one objective's current standing.
type SLOReport struct {
	Name        string       `json:"name"`
	Target      float64      `json:"target"`
	ThresholdNs int64        `json:"thresholdNs"` // as requested
	EffectiveNs int64        `json:"effectiveNs"` // bucket-rounded (applied)
	Total       uint64       `json:"total"`
	Good        uint64       `json:"good"`
	Compliance  float64      `json:"compliance"` // lifetime good/total
	Windows     []BurnWindow `json:"windows,omitempty"`
}

// ReportAt builds the current standing of every objective: lifetime
// compliance from the live counters, plus a burn rate per window from
// the sampled history.
func (s *SLO) ReportAt(now time.Time) []SLOReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SLOReport, 0, len(s.objs))
	for _, o := range s.objs {
		good, total, _ := o.Hist.CountAtOrBelow(o.effective)
		r := SLOReport{
			Name:        o.Name,
			Target:      o.Target,
			ThresholdNs: int64(o.Threshold),
			EffectiveNs: int64(o.effective),
			Total:       total,
			Good:        good,
			Compliance:  1,
		}
		if total > 0 {
			r.Compliance = float64(good) / float64(total)
		}
		budget := 1 - o.Target
		for _, w := range s.windows {
			bw := BurnWindow{Window: w.String()}
			// Newest sample at least a full window old; else the oldest
			// available (partial coverage, flagged via Valid=false).
			var base *sloSample
			for i := len(o.samples) - 1; i >= 0; i-- {
				if now.Sub(o.samples[i].at) >= w {
					base = &o.samples[i]
					break
				}
			}
			if base == nil && len(o.samples) > 0 {
				base = &o.samples[0]
			}
			if base != nil {
				bw.SpanNs = int64(now.Sub(base.at))
				bw.Valid = bw.SpanNs >= int64(w)
				dTotal := total - base.total
				dGood := good - base.good
				if dGood > dTotal { // racy clamp, mirrors CountAtOrBelow
					dGood = dTotal
				}
				bw.Requests = dTotal
				bw.Bad = dTotal - dGood
				if dTotal > 0 && budget > 0 {
					bw.Burn = (float64(bw.Bad) / float64(dTotal)) / budget
				}
			}
			r.Windows = append(r.Windows, bw)
		}
		out = append(out, r)
	}
	return out
}

// Report is ReportAt(time.Now()).
func (s *SLO) Report() []SLOReport { return s.ReportAt(time.Now()) }

// Handler serves the report as JSON (mount at /sloz).
func (s *SLO) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Report())
	})
}

// FormatSLO renders reports as the one-line-per-objective summary used
// by bdbench's human output.
func FormatSLO(reports []SLOReport) string {
	var b []byte
	for _, r := range reports {
		b = append(b, fmt.Sprintf("slo %s: target %.4g%% <= %v (eff %v), compliance %.4f (%d/%d good)",
			r.Name, r.Target*100, time.Duration(r.ThresholdNs), time.Duration(r.EffectiveNs),
			r.Compliance, r.Good, r.Total)...)
		for _, w := range r.Windows {
			b = append(b, fmt.Sprintf(", burn[%s]=%.2f", w.Window, w.Burn)...)
		}
		b = append(b, '\n')
	}
	return string(b)
}
