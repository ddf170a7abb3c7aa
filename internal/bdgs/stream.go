package bdgs

import (
	"bufio"
	"io"
	"math/rand"
)

// Streaming generation covers the "velocity" V of the paper's 4V
// requirements (Section 2): producing data continuously at arbitrary
// volume without materializing it, bounded only by storage and generator
// throughput ("in theory, the data size limit can only be bounded by the
// storage size ... and its running time", Section 5).

// StreamCorpus writes approximately totalBytes of article text to w in
// chunks, returning the bytes written. Unlike Corpus it never holds more
// than one document in memory, so it scales to any volume.
func (m *TextModel) StreamCorpus(w io.Writer, seed int64, totalBytes int64) (int64, error) {
	s := m.newSampler(rng(seed))
	bw := bufio.NewWriterSize(w, 1<<16)
	var written int64
	var doc []byte
	for written < totalBytes {
		doc = m.document(s, 0, doc[:0])
		n := int64(len(doc))
		if written+n > totalBytes {
			n = totalBytes - written
		}
		if _, err := bw.Write(doc[:n]); err != nil {
			return written, err
		}
		written += n
	}
	return written, bw.Flush()
}

// StreamEdges writes the graph's edge list as "src\tdst" lines without
// materializing the flattened list.
func (g *Graph) StreamEdges(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var edges int64
	var buf [32]byte
	for u, a := range g.Adj {
		for _, v := range a {
			if !g.Directed && int32(u) > v {
				continue
			}
			line := appendEdge(buf[:0], int32(u), v)
			if _, err := bw.Write(line); err != nil {
				return edges, err
			}
			edges++
		}
	}
	return edges, bw.Flush()
}

func appendEdge(b []byte, u, v int32) []byte {
	b = appendInt(b, u)
	b = append(b, '\t')
	b = appendInt(b, v)
	return append(b, '\n')
}

func appendInt(b []byte, v int32) []byte {
	if v == 0 {
		return append(b, '0')
	}
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var tmp [12]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// ReviewStream produces reviews one at a time, for velocity-style
// consumers (e.g. a classifier fed from a live firehose). It draws from
// the same distributions as ReviewModel.Generate.
type ReviewStream struct {
	model          *ReviewModel
	s              sampler
	ctl            *rand.Rand
	zUser, zItem   *rand.Zipf
	wordsPerReview int
}

// Stream returns a deterministic unbounded review source.
func (m *ReviewModel) Stream(seed int64, wordsPerReview int) *ReviewStream {
	if wordsPerReview <= 0 {
		wordsPerReview = 60
	}
	ctl := rng(seed)
	return &ReviewStream{
		model:          m,
		s:              m.text.newSampler(rng(seed ^ 0x7ef1)),
		ctl:            ctl,
		zUser:          rand.NewZipf(ctl, 1.3, 4, uint64(m.Users-1)),
		zItem:          rand.NewZipf(ctl, 1.15, 4, uint64(m.Items-1)),
		wordsPerReview: wordsPerReview,
	}
}

// Next generates the next review.
func (rs *ReviewStream) Next() Review {
	rating := sampleRating(rs.ctl)
	return Review{
		UserID: int32(rs.zUser.Uint64()),
		ItemID: int32(rs.zItem.Uint64()),
		Rating: rating,
		Text:   rs.model.reviewText(rs.s, rating, rs.wordsPerReview),
	}
}
