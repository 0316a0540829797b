package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
)

// The latency substrate feeds every placement in the repo, so its values are
// pinned: a SHA-256 of the region labels and one of the pair delays, each
// written as a little-endian int64. Any change to the generator's RNG stream,
// region draw, pair hash or arithmetic that moves a single nanosecond fails
// here before it surfaces as a placement diff elsewhere.
type latencyGolden struct {
	name    string
	cfg     LatencyConfig
	strided bool
	regions string
	delays  string
}

var latencyGoldens = []latencyGolden{
	{
		name: "all-pairs/6016/seed1", cfg: DefaultLatencyConfig(6016, 1),
		regions: "b40ba8edaad5bde0f35e92b9f2a7010b6d45936b1ab687a85914f7cb51396980",
		delays:  "f4f2fcebc68eff9ab4685c6151d2896c7927497bff7a83510fcfa320efb83cce",
	},
	{
		name: "all-pairs/4016/seed1", cfg: DefaultLatencyConfig(4016, 1),
		regions: "8f9576e7ab9b3a35ae07785ad83806de764f36cec2d10a755aeb70b8c54350b7",
		delays:  "22e678c744b5b01b54177dd5c6384cea7582b6b67c231ef44aecb8ef43e40153",
	},
	{
		name: "all-pairs/200/seed11", cfg: DefaultLatencyConfig(200, 11),
		regions: "0440d9a90cb490a264b8fdf63eeb27cac2a67cefa0ad1c53870fbb29e08be2b3",
		delays:  "e33d06a3f0a46acaa1763dec09d7a330c690deacc740ab5020342d9af7d95297",
	},
	{
		// The single-region substrate the root examples run on.
		name:    "all-pairs/16/example",
		cfg:     LatencyConfig{Nodes: 16, Regions: 1, IntraMean: 20e6, InterMean: 80e6, Sigma: 0.3, Seed: 1},
		regions: "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
		delays:  "3acbdd1bf35243ba8d74ba29779d7dcb34ffa13c7d372d97fbdccc84fdb0d301",
	},
	{
		name: "hashed/30016/seed1", cfg: DefaultLatencyConfig(30016, 1), strided: true,
		regions: "43bc677e094ec42ca4f20545b20612fc99d3fa038c642cfaed08ff6f4dfd2483",
		delays:  "7bcd41595aac5e10e93b18eb025a2051e0243497367f1f6a69d11d47a29c363d",
	},
}

// goldenPairs visits the pairs a golden hashes: every i < j row-major, or
// if strided a ~1.2 M-pair subset (every 29th row, every 13th column past
// the diagonal, the start offset varying by row so columns of every residue
// are covered).
func goldenPairs(n int, strided bool, visit func(i, j int)) {
	rowStep, colStep := 1, 1
	if strided {
		rowStep, colStep = 29, 13
	}
	for i := 0; i < n; i += rowStep {
		for j := i + 1 + i%colStep; j < n; j += colStep {
			visit(i, j)
		}
	}
}

// goldenHasher feeds little-endian int64s to a SHA-256 through a buffer, so
// hashing 18 M pairs costs one block write per 8 KiB instead of one per value.
type goldenHasher struct {
	h   hash.Hash
	buf []byte
}

func newGoldenHasher() *goldenHasher {
	return &goldenHasher{h: sha256.New(), buf: make([]byte, 0, 8<<10)}
}

func (g *goldenHasher) writeInt64(v int64) {
	if len(g.buf) == cap(g.buf) {
		g.h.Write(g.buf)
		g.buf = g.buf[:0]
	}
	g.buf = binary.LittleEndian.AppendUint64(g.buf, uint64(v))
}

func (g *goldenHasher) sum() string {
	g.h.Write(g.buf)
	g.buf = g.buf[:0]
	return hex.EncodeToString(g.h.Sum(nil))
}

func TestLatencyMatrixGolden(t *testing.T) {
	for _, g := range latencyGoldens {
		t.Run(g.name, func(t *testing.T) {
			m, err := GenerateLatencyMatrix(g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rh := newGoldenHasher()
			for i := 0; i < m.Nodes(); i++ {
				rh.writeInt64(int64(m.RegionOf(i)))
			}
			dh := newGoldenHasher()
			pairs := 0
			goldenPairs(m.Nodes(), g.strided, func(i, j int) {
				dh.writeInt64(int64(m.Delay(i, j)))
				pairs++
			})
			if g.strided && pairs < 1_000_000 {
				t.Fatalf("strided golden covers %d pairs, want >= 1M", pairs)
			}
			if got := rh.sum(); got != g.regions {
				t.Errorf("region labels hash = %s, want %s", got, g.regions)
			}
			if got := dh.sum(); got != g.delays {
				t.Errorf("delays hash over %d pairs = %s, want %s", pairs, got, g.delays)
			}
		})
	}
}
