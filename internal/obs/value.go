package obs

import (
	"math"
	"strconv"
	"strings"
)

// ValueKind tags which arm of a Value is live.
type ValueKind uint8

const (
	ValueUint  ValueKind = iota // unsigned integer (counters, histogram counts)
	ValueInt                    // signed integer (direct gauges)
	ValueFloat                  // float (computed gauges, histogram sums in seconds)
)

// Value is one sampled metric value that keeps integer kinds integral.
// Registry.Snapshot used to coerce everything to float64, which silently
// rounds uint64 counters above 2^53 (wire byte counters cross that in
// days at memory-speed workloads) — a delta of two rounded counters can
// then report 0 for a busy run. Integer arms marshal as integer JSON
// literals, so bdbench -json records stay exact and jq arithmetic on
// them keeps working unchanged.
type Value struct {
	Kind ValueKind `json:"-"`
	U    uint64    `json:"-"`
	I    int64     `json:"-"`
	F    float64   `json:"-"`
}

// Uint64Value returns a Value holding an unsigned integer.
func Uint64Value(v uint64) Value { return Value{Kind: ValueUint, U: v} }

// IntValue returns a Value holding a signed integer.
func IntValue(v int64) Value { return Value{Kind: ValueInt, I: v} }

// FloatValue returns a Value holding a float.
func FloatValue(v float64) Value { return Value{Kind: ValueFloat, F: v} }

// Float returns the value as a float64 — lossy above 2^53 for integer
// kinds, which is exactly why storage stays tagged.
func (v Value) Float() float64 {
	switch v.Kind {
	case ValueUint:
		return float64(v.U)
	case ValueInt:
		return float64(v.I)
	default:
		return v.F
	}
}

// Uint returns the value as a uint64 (negative and fractional values
// truncate toward zero; negative clamps to 0).
func (v Value) Uint() uint64 {
	switch v.Kind {
	case ValueUint:
		return v.U
	case ValueInt:
		if v.I < 0 {
			return 0
		}
		return uint64(v.I)
	default:
		if v.F <= 0 || math.IsNaN(v.F) {
			return 0
		}
		return uint64(v.F)
	}
}

// String renders the value the way the Prometheus exposition does:
// integer kinds as exact integer literals, floats in shortest form.
func (v Value) String() string {
	switch v.Kind {
	case ValueUint:
		return strconv.FormatUint(v.U, 10)
	case ValueInt:
		return strconv.FormatInt(v.I, 10)
	default:
		return formatFloat(v.F)
	}
}

// MarshalJSON emits a bare JSON number: integer kinds as integer
// literals (exact at any magnitude), floats in shortest round-trip
// form. Non-finite floats (which JSON cannot carry) marshal as null.
func (v Value) MarshalJSON() ([]byte, error) {
	switch v.Kind {
	case ValueUint:
		return strconv.AppendUint(nil, v.U, 10), nil
	case ValueInt:
		return strconv.AppendInt(nil, v.I, 10), nil
	default:
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			return []byte("null"), nil
		}
		return strconv.AppendFloat(nil, v.F, 'g', -1, 64), nil
	}
}

// Sub returns v - o, staying in integer arithmetic whenever both sides
// are integral so counter deltas never round.
func (v Value) Sub(o Value) Value {
	if v.Kind == ValueUint && o.Kind == ValueUint {
		if v.U >= o.U {
			return Uint64Value(v.U - o.U)
		}
		// A shrinking "counter" (process restart mid-run): report the
		// signed truth rather than a wrapped uint64.
		return IntValue(-int64(o.U - v.U))
	}
	if v.Kind != ValueFloat && o.Kind != ValueFloat {
		return IntValue(v.asInt() - o.asInt())
	}
	return FloatValue(v.Float() - o.Float())
}

// Add returns v + o under the same kind-preserving rules as Sub.
func (v Value) Add(o Value) Value {
	if v.Kind == ValueUint && o.Kind == ValueUint {
		return Uint64Value(v.U + o.U)
	}
	if v.Kind != ValueFloat && o.Kind != ValueFloat {
		return IntValue(v.asInt() + o.asInt())
	}
	return FloatValue(v.Float() + o.Float())
}

func (v Value) asInt() int64 {
	if v.Kind == ValueUint {
		return int64(v.U)
	}
	return v.I
}

// Flatten renders the snapshot as a name{labels} → value map — the form
// bdbench diffs before and after a run, whether the snapshot was
// captured locally or fetched and merged from remote nodes. Counters
// and gauges map directly; a histogram contributes _count and _sum
// entries. Integer kinds stay integral (see Value).
func (s *RegistrySnapshot) Flatten() map[string]Value {
	out := map[string]Value{}
	for _, f := range s.Fams {
		for _, ser := range f.Series {
			if f.Kind == KindHistogram {
				out[f.Name+"_count"+ser.Labels] = Uint64Value(ser.Count)
				out[f.Name+"_sum"+ser.Labels] = FloatValue(float64(ser.SumNs) / 1e9)
			} else {
				out[f.Name+ser.Labels] = ser.Value
			}
		}
	}
	return out
}

// Snapshot is the flattened capture of this registry.
func (r *Registry) Snapshot() map[string]Value { return r.Capture("").Flatten() }

// Delta diffs two snapshots: monotonic keys (suffix _total, _count,
// _sum before any label braces) report after-before; everything else
// reports the after value. Keys absent from after are dropped.
func Delta(before, after map[string]Value) map[string]Value {
	out := make(map[string]Value, len(after))
	for k, v := range after {
		name := k
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_count") ||
			strings.HasSuffix(name, "_sum") {
			out[k] = v.Sub(before[k])
		} else {
			out[k] = v
		}
	}
	return out
}
