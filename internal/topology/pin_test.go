package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"amac/internal/graph"
)

// csrSum is the SHA-256 of a graph's CSR block: the row offsets as
// little-endian int32s, then the arcs as little-endian int64s.
func csrSum(g *graph.Graph) string {
	off, arcs := g.CSR()
	h := sha256.New()
	var b [8]byte
	for _, o := range off {
		binary.LittleEndian.PutUint32(b[:4], uint32(o))
		h.Write(b[:4])
	}
	for _, a := range arcs {
		binary.LittleEndian.PutUint64(b[:], uint64(a))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRGGBuildPinned pins the bytes of one cell-grid rgg build — the
// network BenchmarkBuildRGG and BenchmarkBMMBRGG run on (n = 2·10^4, side
// 39.8, c = 1.6, p = 0.5, seed 1) — with G's and G′'s CSR SHA-256 as the
// two-scan build produced them. The geometric builder's differential tests
// compare it against a reference kept beside them; this pin keeps the
// builder and that reference from drifting together.
func TestRGGBuildPinned(t *testing.T) {
	b, err := BuildSeeded("rgg", Params{"n": 20000, "side": 39.8, "c": 1.6, "p": 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []struct {
		name string
		g    *graph.Graph
		m    int
		sum  string
	}{
		{"G", b.Dual.G, 387887, "ce32f628ea844d9b0382be05247546396810de07d458abbf4bde00234762688d"},
		{"G'", b.Dual.GPrime, 684525, "2b3caaa4782614d448befd42ca5be61d4fadd94a8d50d3958a2c0ab15c6303f6"},
	} {
		if m, sum := pin.g.M(), csrSum(pin.g); m != pin.m || sum != pin.sum {
			t.Errorf("%s: %d edges, CSR SHA-256 %s; pinned %d edges, %s", pin.name, m, sum, pin.m, pin.sum)
		}
	}
}
