package bdgs

import (
	"bytes"
	"math/rand"
	"strconv"
)

// TextModel generates unstructured English-like text whose word-frequency
// distribution follows Zipf's law, the dominant characteristic of the
// Wikipedia seed corpus. Word lengths follow the empirical English mix
// (common words short, tail words longer), so byte-level characteristics
// (average token length ~5, whitespace density) also match.
type TextModel struct {
	vocab  []string
	zipfS  float64
	zipfV  float64
	stop   []string // top-rank function words
	docLen int      // mean words per document
}

// Standard English function words occupy the top Zipf ranks, as in the
// Wikipedia corpus; content words are synthesized below them.
var stopWords = []string{
	"the", "of", "and", "in", "to", "a", "is", "was", "for", "as", "on",
	"with", "by", "that", "it", "from", "at", "his", "an", "are", "were",
	"which", "this", "be", "he", "also", "or", "has", "had", "its", "but",
	"not", "have", "one", "new", "first", "their", "after", "who", "they",
	"two", "her", "she", "been", "other", "when", "time", "during", "into",
	"school", "city", "world", "state", "year", "national", "university",
	"war", "between", "used", "may", "american", "most", "all", "where",
}

var syllables = []string{
	"ta", "ren", "lo", "mi", "con", "ver", "sta", "pel", "dor", "ing",
	"ra", "bel", "tion", "ner", "ka", "sol", "ment", "gra", "fin", "dus",
	"ter", "val", "nor", "eli", "pra", "shu", "mon", "zet", "qui", "lan",
	"ber", "tol", "san", "del", "cor", "vis", "har", "nel", "pol", "gar",
}

// NewTextModel builds the Wikipedia-seeded text model with the given
// vocabulary size (the seed uses 50k; tests may shrink it).
func NewTextModel(vocabSize int) *TextModel {
	if vocabSize < len(stopWords)+10 {
		vocabSize = len(stopWords) + 10
	}
	m := &TextModel{zipfS: 1.07, zipfV: 2.7, stop: stopWords, docLen: 400}
	m.vocab = make([]string, vocabSize)
	copy(m.vocab, stopWords)
	// Deterministic synthetic content words: syllable compositions.
	r := rng(0x5eed7e47)
	for i := len(stopWords); i < vocabSize; i++ {
		n := 2 + r.Intn(3)
		var b []byte
		for j := 0; j < n; j++ {
			b = append(b, syllables[r.Intn(len(syllables))]...)
		}
		m.vocab[i] = string(b)
	}
	return m
}

// VocabSize returns the vocabulary size of the model.
func (m *TextModel) VocabSize() int { return len(m.vocab) }

// Word returns the word at Zipf rank position drawn from z.
func (m *TextModel) word(z *rand.Zipf) string {
	i := z.Uint64()
	if int(i) >= len(m.vocab) {
		i = uint64(len(m.vocab) - 1)
	}
	return m.vocab[i]
}

// sampler pairs a PRNG with its Zipf source for one generation stream.
type sampler struct {
	r *rand.Rand
	z *rand.Zipf
}

func (m *TextModel) newSampler(r *rand.Rand) sampler {
	return sampler{r: r, z: rand.NewZipf(r, m.zipfS, m.zipfV, uint64(len(m.vocab)-1))}
}

// Document synthesizes one article of roughly meanWords words (if
// meanWords<=0 the model default is used) and appends it to dst.
func (m *TextModel) document(s sampler, meanWords int, dst []byte) []byte {
	if meanWords <= 0 {
		meanWords = m.docLen
	}
	n := meanWords/2 + s.r.Intn(meanWords) // uniform around the mean
	col := 0
	for i := 0; i < n; i++ {
		w := m.word(s.z)
		dst = append(dst, w...)
		col += len(w) + 1
		if col > 72 {
			dst = append(dst, '\n')
			col = 0
		} else {
			dst = append(dst, ' ')
		}
	}
	dst = append(dst, '\n')
	return dst
}

// Corpus generates approximately totalBytes of article text, returning the
// concatenated documents. Generation is deterministic in (seed, totalBytes).
func (m *TextModel) Corpus(seed int64, totalBytes int) []byte {
	s := m.newSampler(rng(seed))
	out := make([]byte, 0, totalBytes+4096)
	for len(out) < totalBytes {
		out = m.document(s, 0, out)
	}
	return out[:totalBytes]
}

// Lines generates n newline-terminated text records of roughly wordsPerLine
// words each — the record-oriented input (e.g. for Sort and Grep) that the
// BDGS format-conversion tools produce for Hadoop text inputs.
func (m *TextModel) Lines(seed int64, n, wordsPerLine int) [][]byte {
	s := m.newSampler(rng(seed))
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = m.appendLine(s, wordsPerLine, nil)
	}
	return lines
}

// appendLine draws one record of 1 to 2·wordsPerLine words onto dst.
func (m *TextModel) appendLine(s sampler, wordsPerLine int, dst []byte) []byte {
	k := 1 + s.r.Intn(wordsPerLine*2)
	for j := 0; j < k; j++ {
		if j > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, m.word(s.z)...)
	}
	return dst
}

// Pages generates n synthetic web pages (for Index and the Nutch server's
// crawl corpus): each has a numeric page ID line, a title, and a body.
func (m *TextModel) Pages(seed int64, n, bodyWords int) []Page {
	s := m.newSampler(rng(seed))
	pages := make([]Page, n)
	for i := range pages {
		var title bytes.Buffer
		for j := 0; j < 2+s.r.Intn(4); j++ {
			if j > 0 {
				title.WriteByte(' ')
			}
			title.WriteString(m.word(s.z))
		}
		pages[i] = Page{
			ID:    "page-" + strconv.Itoa(i),
			Title: title.String(),
			Body:  m.document(s, bodyWords, nil),
		}
	}
	return pages
}

// Page is one synthetic web page.
type Page struct {
	ID    string
	Title string
	Body  []byte
}

// Bytes returns the serialized size of the page.
func (p Page) Bytes() int { return len(p.ID) + len(p.Title) + len(p.Body) }
