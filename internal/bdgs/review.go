package bdgs

import "math/rand"

// Review is one semi-structured Amazon-movie-review-like record: a
// (user, item) interaction with a star rating and a short text whose word
// choice is tinted by the rating's sentiment — the structure Naive Bayes
// (sentiment classification) and Collaborative Filtering consume.
type Review struct {
	UserID int32
	ItemID int32
	Rating int8 // 1..5 stars
	Text   string
}

// Bytes returns the modeled serialized size of the review.
func (v Review) Bytes() int { return 12 + len(v.Text) }

// Positive reviews (4-5 stars) dominate the Amazon seed (~78%); the
// generated rating distribution preserves that skew.
var ratingCDF = [5]float64{0.06, 0.13, 0.22, 0.45, 1.00}

var positiveWords = []string{
	"great", "excellent", "wonderful", "best", "loved", "perfect",
	"amazing", "brilliant", "beautiful", "superb", "favorite", "classic",
}
var negativeWords = []string{
	"terrible", "awful", "worst", "boring", "waste", "disappointing",
	"bad", "poor", "dull", "horrible", "weak", "mess",
}

// ReviewModel generates reviews with Zipfian user and item activity
// (few prolific reviewers and blockbuster movies dominate).
type ReviewModel struct {
	Users int
	Items int
	text  *TextModel
}

// NewReviewModel sizes the populations from the review count using the
// seed's ratios (7.9 M reviews, 253 k users, 889 k movies).
func NewReviewModel(reviews int, text *TextModel) *ReviewModel {
	users := reviews / 31
	if users < 16 {
		users = 16
	}
	items := reviews / 9
	if items < 16 {
		items = 16
	}
	return &ReviewModel{Users: users, Items: items, text: text}
}

// Generate produces n reviews, deterministic in seed: the first n of
// Stream(seed, wordsPerReview).
func (m *ReviewModel) Generate(seed int64, n int, wordsPerReview int) []Review {
	rs := m.Stream(seed, wordsPerReview)
	out := make([]Review, n)
	for i := range out {
		out[i] = rs.Next()
	}
	return out
}

func sampleRating(r *rand.Rand) int8 {
	x := r.Float64()
	for i, c := range ratingCDF {
		if x < c {
			return int8(i + 1)
		}
	}
	return 5
}

// reviewText mixes base vocabulary with sentiment words at a rate that
// rises with distance from the neutral rating, so a classifier has signal.
func (m *ReviewModel) reviewText(s sampler, rating int8, meanWords int) string {
	n := meanWords/2 + s.r.Intn(meanWords)
	var b []byte
	sentFrac := 0.06 * float64(abs8(rating-3))
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		if s.r.Float64() < sentFrac {
			if rating >= 4 {
				b = append(b, positiveWords[s.r.Intn(len(positiveWords))]...)
			} else {
				b = append(b, negativeWords[s.r.Intn(len(negativeWords))]...)
			}
			continue
		}
		b = append(b, m.text.word(s.z)...)
	}
	return string(b)
}

func abs8(x int8) int8 {
	if x < 0 {
		return -x
	}
	return x
}
