package main

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
)

// stream returns a copy of the generator's next n batches.
func stream(g *opGen, n int) [][]cluster.Op {
	out := make([][]cluster.Op, n)
	for i := range out {
		for _, op := range g.nextBatch(0) {
			op.Value = bytes.Clone(op.Value) // the generator recycles value buffers
			out[i] = append(out[i], op)
		}
	}
	return out
}

func sameStream(a, b [][]cluster.Op) bool {
	for i := range a {
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.Kind != y.Kind || !bytes.Equal(x.Key, y.Key) || !bytes.Equal(x.Value, y.Value) {
				return false
			}
		}
	}
	return true
}

func TestGeneratorDeterministicFromSeed(t *testing.T) {
	for _, name := range []string{"kv-read-net", "kv-read-bigset", "kv-update-r2"} {
		sp, _ := findSpec(name)
		sp = sp.shrink(50)
		kt := newKeyTable(sp.keys, sp.valueLen)
		a := stream(newOpGen(kt, sp, 7, 0), 200)
		if !sameStream(a, stream(newOpGen(kt, sp, 7, 0), 200)) {
			t.Errorf("%s: two generators with one seed emitted different streams", name)
		}
		if sameStream(a, stream(newOpGen(kt, sp, 8, 0), 200)) {
			t.Errorf("%s: seeds 7 and 8 emitted the same stream", name)
		}
		if sameStream(a, stream(newOpGen(kt, sp, 7, 1), 200)) {
			t.Errorf("%s: clients 0 and 1 emitted the same stream", name)
		}
	}
	sp, _ := findSpec("kv-scan-net")
	kt := newKeyTable(1000, sp.valueLen)
	a, b, c := newOpGen(kt, sp, 7, 0), newOpGen(kt, sp, 7, 0), newOpGen(kt, sp, 8, 0)
	differs := false
	for i := 0; i < 200; i++ {
		x := a.nextScanStart()
		if x != b.nextScanStart() {
			t.Fatal("kv-scan-net: two generators with one seed drew different scan starts")
		}
		differs = differs || x != c.nextScanStart()
	}
	if !differs {
		t.Error("kv-scan-net: seeds 7 and 8 drew the same scan starts")
	}
}

func TestGeneratorAllocationFree(t *testing.T) {
	for _, name := range []string{"kv-read-net", "kv-update-r2"} {
		sp, _ := findSpec(name)
		sp = sp.shrink(50)
		g := newOpGen(newKeyTable(sp.keys, sp.valueLen), sp, 1, 0)
		if n := testing.AllocsPerRun(1000, func() { g.nextBatch(0) }); n != 0 {
			t.Errorf("%s: nextBatch allocates %.1f times per batch, want 0", name, n)
		}
	}
}

func TestKeyTable(t *testing.T) {
	kt := newKeyTable(1500, 64)
	for i := 1; i < len(kt.keys); i++ {
		if bytes.Compare(kt.keys[i-1], kt.keys[i]) >= 0 {
			t.Fatalf("keys %d and %d out of order: %s %s", i-1, i, kt.keys[i-1], kt.keys[i])
		}
	}
	v := kt.newValue()
	kt.stamp(v, 42)
	if !kt.valid(42, v) {
		t.Error("a key's own value is not valid for it")
	}
	if kt.valid(43, v) {
		t.Error("key 42's value is valid for key 43")
	}
	if kt.valid(42, v[:63]) {
		t.Error("a truncated value is valid")
	}
}
