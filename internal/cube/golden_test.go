package cube_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"soctap/internal/cube"
	"soctap/internal/soc"
)

var updateGenGolden = flag.Bool("update-gen-golden", false, "rewrite testdata/gen_digests.golden from the current generator")

// genGoldenPath holds the sha256 of the (Pos, Value) stream of each
// golden generator case. The random stream is part of the generator's
// contract — every table digest downstream depends on it — so any
// change to placement, sorting or the rng draw order must fail here.
const genGoldenPath = "testdata/gen_digests.golden"

type genGoldenCase struct {
	name string
	src  func(t *testing.T) cube.Source
	n    int // cubes digested
}

func specSource(spec cube.GenSpec) func(t *testing.T) cube.Source {
	return func(t *testing.T) cube.Source {
		gen, err := cube.NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}
}

// genGoldenCases covers both placement regimes, the saturating spec
// that reaches fillRemaining, and the head of one giant-profile core.
func genGoldenCases() []genGoldenCase {
	return []genGoldenCase{
		{"scan", specSource(cube.GenSpec{NumBits: 2700, Patterns: 120, Density: 0.04, DensityDecay: 0.7,
			Clustering: 0.8, OneBias: 0.45, Seed: 21,
			Geometry: []int{400, 400, 350, 350, 300, 300, 300, 200}, IOCells: 100}), 120},
		{"flat", specSource(cube.GenSpec{NumBits: 5000, Patterns: 150, Density: 0.03, DensityDecay: 0.8,
			Clustering: 0.7, Seed: 11}), 150},
		{"saturating", specSource(cube.GenSpec{NumBits: 300, Patterns: 40, Density: 1, Clustering: 0.9,
			Seed: 3, Geometry: []int{90, 90, 80}, IOCells: 40}), 40},
		{"giant-core-1", func(t *testing.T) cube.Source {
			s, err := soc.Synthesize(context.Background(), soc.SynthSpec{Name: "g", Profile: "giant", Cores: 1, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			src, err := s.Cores[0].TestSource()
			if err != nil {
				t.Fatal(err)
			}
			return src
		}, 2000},
	}
}

// genDigest hashes the first n cubes of src: per cube its care count,
// then every care bit's position and value in order.
func genDigest(t *testing.T, src cube.Source, n int) string {
	t.Helper()
	h := sha256.New()
	var buf []byte
	for i := 0; i < n; i++ {
		c, ok := src.Next()
		if !ok {
			t.Fatalf("source ended at cube %d of %d", i, n)
		}
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(c.Care)))
		for _, b := range c.Care {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(b.Pos))
			v := byte(0)
			if b.Value {
				v = 1
			}
			buf = append(buf, v)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorGoldenDigests pins the generated cube streams bit for bit
// to digests captured before the generator's placement bookkeeping was
// last rewritten. Regenerate with -update-gen-golden only for a change
// that intends to alter the cubes.
func TestGeneratorGoldenDigests(t *testing.T) {
	var lines []string
	got := make(map[string]string)
	for _, cse := range genGoldenCases() {
		sum := genDigest(t, cse.src(t), cse.n)
		got[cse.name] = sum
		lines = append(lines, fmt.Sprintf("%s %s", cse.name, sum))
	}
	if *updateGenGolden {
		data := "# sha256 of each generated (Pos, Value) stream (TestGeneratorGoldenDigests)\n" + strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(genGoldenPath, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(genGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		want[name] = sum
	}
	for _, cse := range genGoldenCases() {
		if w, ok := want[cse.name]; !ok {
			t.Errorf("%s: no golden digest", cse.name)
		} else if got[cse.name] != w {
			t.Errorf("%s: digest %s, golden %s", cse.name, got[cse.name], w)
		}
	}
}
