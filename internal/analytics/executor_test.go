package analytics

import (
	"bytes"
	"errors"
	"testing"
)

// wordCountMap is a WordCount map task over input lines [0,lines).
func wordCountMap(t *testing.T, lines, vocab int) TaskSpec {
	t.Helper()
	job, err := JobSpec{Kind: WordCount, Seed: 42, Lines: lines, Vocab: vocab, Reducers: 3}.normalize(1)
	if err != nil {
		t.Fatal(err)
	}
	return TaskSpec{Kind: TaskMap, Job: job, Hi: lines}
}

// TestWordCountReduceRejectsCorruptCount: a partial count that does not
// parse must fail the reduce, not be added to the total as 0.
func TestWordCountReduceRejectsCorruptCount(t *testing.T) {
	ex := NewExecutor(ExecutorConfig{Self: "self"})
	defer ex.Close()
	ex.tasks[1] = &execTask{finished: true,
		shuffle: [][]byte{AppendRow(nil, []byte("word"), []byte("x1"))}}
	job, err := JobSpec{Kind: WordCount, Reducers: 1}.normalize(1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ex.runReduce(TaskSpec{Kind: TaskReduce, Job: job,
		Fetch: []FetchRef{{Addr: "self", Task: 1}}})
	if !errors.Is(err, ErrRowCorrupt) {
		t.Fatalf("reduce over count %q: err = %v, want ErrRowCorrupt", "x1", err)
	}
}

// TestWordCountMapAllocsFollowDistinctWords: the map-side combiner
// copies a word once, on its first sight, so eight times the tokens over
// the same 100-word vocabulary cost only the few extra input chunks.
func TestWordCountMapAllocsFollowDistinctWords(t *testing.T) {
	ex := NewExecutor(ExecutorConfig{})
	defer ex.Close()
	allocs := func(lines int) float64 {
		ts := wordCountMap(t, lines, 100)
		return testing.AllocsPerRun(3, func() {
			if _, _, err := ex.runMap(ts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(500), allocs(4000)
	if big > small+32 {
		t.Fatalf("map task allocs: %.0f over 500 lines, %.0f over 4000 — they grow with tokens", small, big)
	}
}

// TestWordCountMapDeterministic: the same map task yields byte-identical
// shuffle partitions every time it runs.
func TestWordCountMapDeterministic(t *testing.T) {
	ex := NewExecutor(ExecutorConfig{})
	defer ex.Close()
	ts := wordCountMap(t, 2000, 3000)
	_, first, err := ex.runMap(ts)
	if err != nil {
		t.Fatal(err)
	}
	_, again, err := ex.runMap(ts)
	if err != nil {
		t.Fatal(err)
	}
	for p := range first {
		if !bytes.Equal(first[p], again[p]) {
			t.Fatalf("partition %d differs between two runs of the same map task", p)
		}
	}
}
