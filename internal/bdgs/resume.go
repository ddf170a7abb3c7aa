package bdgs

import (
	"math/rand"
	"strconv"
	"strings"
)

// Resume is one semi-structured ProfSearch record, the value type the
// Cloud-OLTP (Read/Write/Scan) workloads store in the NoSQL substrate.
type Resume struct {
	Key          string // row key: zero-padded person ID
	Name         string
	Institution  string
	Title        string
	Field        string
	Degrees      []string
	Publications int
}

var (
	institutions = []string{
		"Tsinghua University", "Peking University", "ICT CAS", "MIT",
		"Stanford University", "UC Berkeley", "ETH Zurich", "CMU",
		"University of Tokyo", "EPFL", "Oxford University", "NUS",
	}
	titles = []string{
		"Professor", "Associate Professor", "Assistant Professor",
		"Research Scientist", "Postdoctoral Fellow", "Lecturer",
	}
	fields = []string{
		"computer architecture", "databases", "operating systems",
		"machine learning", "networking", "compilers", "distributed systems",
		"computational biology", "hci", "security",
	}
	degrees = []string{"BSc", "MSc", "PhD"}
)

// ResumeModel generates resumés; field popularity is skewed (a few hot
// fields dominate) as in the seed's crawl of ~200 institutions.
type ResumeModel struct{}

// Generate produces n resumés, deterministic in seed. Keys are zero-padded
// so lexicographic key order matches numeric order (HBase-style row keys).
func (ResumeModel) Generate(seed int64, n int) []Resume {
	r := rng(seed)
	out := make([]Resume, n)
	for i := range out {
		out[i] = resumeAt(r, i, n)
	}
	return out
}

// resumeAt draws row i of a total-row table from r.
func resumeAt(r *rand.Rand, i, total int) Resume {
	nd := 1 + r.Intn(3)
	ds := make([]string, nd)
	for j := 0; j < nd; j++ {
		ds[j] = degrees[j%len(degrees)] + " " + institutions[r.Intn(len(institutions))]
	}
	return Resume{
		Key:          ResumeKey(i),
		Name:         "person-" + strconv.Itoa(r.Intn(10*total)+1),
		Institution:  institutions[skewIndex(r.Float64(), len(institutions))],
		Title:        titles[skewIndex(r.Float64(), len(titles))],
		Field:        fields[skewIndex(r.Float64(), len(fields))],
		Degrees:      ds,
		Publications: r.Intn(200),
	}
}

// ResumeKey formats row key i in the store's zero-padded keyspace.
func ResumeKey(i int) string {
	s := strconv.Itoa(i)
	return "res" + strings.Repeat("0", 10-len(s)) + s
}

// skewIndex maps a uniform draw to a skewed index (earlier entries more
// popular), preserving the seed's hot-field concentration.
func skewIndex(x float64, n int) int {
	i := int(x * x * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// Encode serializes the resume as the semi-structured "field: value" text
// blob stored as the NoSQL row value.
func (re Resume) Encode() []byte {
	var b strings.Builder
	b.WriteString("name: ")
	b.WriteString(re.Name)
	b.WriteString("\ninstitution: ")
	b.WriteString(re.Institution)
	b.WriteString("\ntitle: ")
	b.WriteString(re.Title)
	b.WriteString("\nfield: ")
	b.WriteString(re.Field)
	b.WriteString("\ndegrees: ")
	b.WriteString(strings.Join(re.Degrees, "; "))
	b.WriteString("\npublications: ")
	b.WriteString(strconv.Itoa(re.Publications))
	b.WriteByte('\n')
	return []byte(b.String())
}

// DecodeResume parses an encoded resume blob back into a Resume (minus the
// key), for scan-side verification.
func DecodeResume(blob []byte) Resume {
	var re Resume
	for _, line := range strings.Split(string(blob), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		switch k {
		case "name":
			re.Name = v
		case "institution":
			re.Institution = v
		case "title":
			re.Title = v
		case "field":
			re.Field = v
		case "degrees":
			if v != "" {
				re.Degrees = strings.Split(v, "; ")
			}
		case "publications":
			re.Publications, _ = strconv.Atoi(v)
		}
	}
	return re
}
