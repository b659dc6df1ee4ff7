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

// pin is one graph's edge count and CSR SHA-256 (csrSum).
type pin struct {
	m   int
	sum string
}

// buildPins holds the bytes of every registered family's build: each family
// at its buildCases parameters (nil params) and seeds 1-4, plus the
// networks the benchmarks run on — the cell-grid rgg of BenchmarkBuildRGG
// and BenchmarkBMMBRGG (n = 2·10^4), the 10^5-node pods of
// scenarios/large-n-pods.json and perfbench's pods-sharded, and the 20×20
// grid-crosstalk of perfbench's sweep-checked.
var buildPins = []struct {
	name  string
	p     Params
	seed  int64
	g, gp pin
}{
	{"rgg", Params{"n": 20000, "side": 39.8, "c": 1.6, "p": 0.5}, 1,
		pin{387887, "ce32f628ea844d9b0382be05247546396810de07d458abbf4bde00234762688d"},
		pin{684525, "2b3caaa4782614d448befd42ca5be61d4fadd94a8d50d3958a2c0ab15c6303f6"}},
	{"pods", Params{"n": 100000, "k": 16, "r": 2, "p": 0.5}, 535353,
		pin{99984, "2a321dcab2011f2adf3d42e493773bde9506163d46174e77dac72fcaae83fcf0"},
		pin{150009, "598edc20d4faa5a8d5b504487398cd2db3b71b1055609f0d5da8633c2a56929c"}},
	{"grid-crosstalk", Params{"rows": 20, "cols": 20, "r": 2, "p": 0.5}, 7001,
		pin{760, "73939345457731748cf288516c7463b7b22f0402311dd483b7d21ff50a15f910"},
		pin{1482, "24a578cce29713cdfb526b39a84f4a2882005b2e60bae365994d1457f6c193ee"}},
	{"grid", nil, 1, pin{17, "246e7cb9c252005ed841d74b07871d69eb7d108e7dda7734893c15e855b769e9"}, pin{17, "246e7cb9c252005ed841d74b07871d69eb7d108e7dda7734893c15e855b769e9"}},
	{"grid", nil, 2, pin{17, "246e7cb9c252005ed841d74b07871d69eb7d108e7dda7734893c15e855b769e9"}, pin{17, "246e7cb9c252005ed841d74b07871d69eb7d108e7dda7734893c15e855b769e9"}},
	{"grid", nil, 3, pin{17, "246e7cb9c252005ed841d74b07871d69eb7d108e7dda7734893c15e855b769e9"}, pin{17, "246e7cb9c252005ed841d74b07871d69eb7d108e7dda7734893c15e855b769e9"}},
	{"grid", nil, 4, pin{17, "246e7cb9c252005ed841d74b07871d69eb7d108e7dda7734893c15e855b769e9"}, pin{17, "246e7cb9c252005ed841d74b07871d69eb7d108e7dda7734893c15e855b769e9"}},
	{"grid-crosstalk", nil, 1, pin{17, "246e7cb9c252005ed841d74b07871d69eb7d108e7dda7734893c15e855b769e9"}, pin{32, "9351ee6e09f558e64fba4f7f01216cf5f88eeec3969a1ea1296249a758c714a2"}},
	{"grid-crosstalk", nil, 2, pin{17, "246e7cb9c252005ed841d74b07871d69eb7d108e7dda7734893c15e855b769e9"}, pin{30, "2d7bb253ea5da207aed5b138bb52cf4ccca7f43f3d4a8d51e918e25b6c5047f7"}},
	{"grid-crosstalk", nil, 3, pin{17, "246e7cb9c252005ed841d74b07871d69eb7d108e7dda7734893c15e855b769e9"}, pin{27, "f8e5b5e740e5bee7adfb438c5163e2592faf30b4fd5db01910b429202f8164ed"}},
	{"grid-crosstalk", nil, 4, pin{17, "246e7cb9c252005ed841d74b07871d69eb7d108e7dda7734893c15e855b769e9"}, pin{31, "772974dc359cc934486c322e91a867e0970bec13cdfacfed8e6280a47c021aba"}},
	{"line", nil, 1, pin{8, "58a2786522529536603c3a2d9f580ea06ee85066b8614cce83bbc825da0ce6ee"}, pin{8, "58a2786522529536603c3a2d9f580ea06ee85066b8614cce83bbc825da0ce6ee"}},
	{"line", nil, 2, pin{8, "58a2786522529536603c3a2d9f580ea06ee85066b8614cce83bbc825da0ce6ee"}, pin{8, "58a2786522529536603c3a2d9f580ea06ee85066b8614cce83bbc825da0ce6ee"}},
	{"line", nil, 3, pin{8, "58a2786522529536603c3a2d9f580ea06ee85066b8614cce83bbc825da0ce6ee"}, pin{8, "58a2786522529536603c3a2d9f580ea06ee85066b8614cce83bbc825da0ce6ee"}},
	{"line", nil, 4, pin{8, "58a2786522529536603c3a2d9f580ea06ee85066b8614cce83bbc825da0ce6ee"}, pin{8, "58a2786522529536603c3a2d9f580ea06ee85066b8614cce83bbc825da0ce6ee"}},
	{"noisy-line", nil, 1, pin{11, "99593023693d76bd335b9b890b84c7cec1f3acfa30e2f82ee0572c306678631d"}, pin{17, "088ab3c8f589cec73989b620d3745834c32c28004a43e028ef6c5eb782873cd4"}},
	{"noisy-line", nil, 2, pin{11, "99593023693d76bd335b9b890b84c7cec1f3acfa30e2f82ee0572c306678631d"}, pin{17, "be955d34b597827260a2f6e01b9aaed5279fd366a322793e76826c62e1499d9d"}},
	{"noisy-line", nil, 3, pin{11, "99593023693d76bd335b9b890b84c7cec1f3acfa30e2f82ee0572c306678631d"}, pin{17, "27301b5e9727351c80dca1feae7bad52ac0b422230383b301bd98b7c022c3982"}},
	{"noisy-line", nil, 4, pin{11, "99593023693d76bd335b9b890b84c7cec1f3acfa30e2f82ee0572c306678631d"}, pin{17, "9f9153606ca2769017a2034ac2cfc36f1e6846dfc701a64ccb017e31d6b7027e"}},
	{"parallel-lines", nil, 1, pin{8, "d113f66a92ca21117b985b6eeee21a6f9505b875b2120705d589bde48ac0b61f"}, pin{16, "44d496d559604aa1d7b3d5219afd8d15bdde8c8b92936a1794f6411a82845665"}},
	{"parallel-lines", nil, 2, pin{8, "d113f66a92ca21117b985b6eeee21a6f9505b875b2120705d589bde48ac0b61f"}, pin{16, "44d496d559604aa1d7b3d5219afd8d15bdde8c8b92936a1794f6411a82845665"}},
	{"parallel-lines", nil, 3, pin{8, "d113f66a92ca21117b985b6eeee21a6f9505b875b2120705d589bde48ac0b61f"}, pin{16, "44d496d559604aa1d7b3d5219afd8d15bdde8c8b92936a1794f6411a82845665"}},
	{"parallel-lines", nil, 4, pin{8, "d113f66a92ca21117b985b6eeee21a6f9505b875b2120705d589bde48ac0b61f"}, pin{16, "44d496d559604aa1d7b3d5219afd8d15bdde8c8b92936a1794f6411a82845665"}},
	{"pods", nil, 1, pin{15, "f4d311fffb5d0561a3a5cb31cb81d04222f609a8872203ebfde215ce648d1480"}, pin{22, "747e1ffdac3456962b0d904c36635a9d704ba2bd0f483d69b729337278665f8a"}},
	{"pods", nil, 2, pin{15, "f4d311fffb5d0561a3a5cb31cb81d04222f609a8872203ebfde215ce648d1480"}, pin{23, "932098b3ac46027a1a957f077a338d1b1ab2a0a1cc36eab55c6411040a433e79"}},
	{"pods", nil, 3, pin{15, "f4d311fffb5d0561a3a5cb31cb81d04222f609a8872203ebfde215ce648d1480"}, pin{21, "980bad0492336c209951437ace4939a9bbfaeaa8428bd129ca4f6907e53cefa4"}},
	{"pods", nil, 4, pin{15, "f4d311fffb5d0561a3a5cb31cb81d04222f609a8872203ebfde215ce648d1480"}, pin{22, "9a81803bbc26f8980307006be5ae376cb9cb46468c0972a918235d0749362c87"}},
	{"rgg", nil, 1, pin{42, "547c08dff2afe47cc331fe2c2849e5df9662d3496844314df6bcf600ab51e59a"}, pin{59, "4f9559797041735e4e6e57330909c1769258e32e0108fc5dc26d31bbc91754f5"}},
	{"rgg", nil, 2, pin{38, "580e1fa386d5c35f89608bbe05174b4bbffe63b2ad068025047e9dfd1fc51fdd"}, pin{52, "d9167f0c0acc1313ba382e58ec040525254213f3f201e43cf1852e0b0493e933"}},
	{"rgg", nil, 3, pin{37, "d47b0edd1fd582f80423c65ec1522206f41b89c746b9bd6c13b70d99aee8f375"}, pin{54, "b976af157536cc80e587c9fbc93ebf95d772f4240ba1b19eb6d2eb8d1286bc87"}},
	{"rgg", nil, 4, pin{30, "86c74048fb173248fa69b37c081c2cf5357fa668c6047d6d09c7cf9b5e389f9a"}, pin{49, "5131f3831b015005b204858e9cd8e30e41850e8eda6f701f2126fd622f79b9e6"}},
	{"ring", nil, 1, pin{8, "fe10a4d4d31a7ca1a87d6327068abe58ff52f6c6a8a87fc8449e3a7a3351bde8"}, pin{8, "fe10a4d4d31a7ca1a87d6327068abe58ff52f6c6a8a87fc8449e3a7a3351bde8"}},
	{"ring", nil, 2, pin{8, "fe10a4d4d31a7ca1a87d6327068abe58ff52f6c6a8a87fc8449e3a7a3351bde8"}, pin{8, "fe10a4d4d31a7ca1a87d6327068abe58ff52f6c6a8a87fc8449e3a7a3351bde8"}},
	{"ring", nil, 3, pin{8, "fe10a4d4d31a7ca1a87d6327068abe58ff52f6c6a8a87fc8449e3a7a3351bde8"}, pin{8, "fe10a4d4d31a7ca1a87d6327068abe58ff52f6c6a8a87fc8449e3a7a3351bde8"}},
	{"ring", nil, 4, pin{8, "fe10a4d4d31a7ca1a87d6327068abe58ff52f6c6a8a87fc8449e3a7a3351bde8"}, pin{8, "fe10a4d4d31a7ca1a87d6327068abe58ff52f6c6a8a87fc8449e3a7a3351bde8"}},
	{"rline", nil, 1, pin{11, "99593023693d76bd335b9b890b84c7cec1f3acfa30e2f82ee0572c306678631d"}, pin{17, "3c93ee5f893a86925dabfabf38cfee0ae16516abfac1c8f6acc0b739c2e49c89"}},
	{"rline", nil, 2, pin{11, "99593023693d76bd335b9b890b84c7cec1f3acfa30e2f82ee0572c306678631d"}, pin{19, "9db341386b6e586198fb20bff665df752f2ccec6e562a0b2a8ea858d0e857fa5"}},
	{"rline", nil, 3, pin{11, "99593023693d76bd335b9b890b84c7cec1f3acfa30e2f82ee0572c306678631d"}, pin{16, "879a7fb49c0d3802408c72c15fec394636d6811525b3f01f241ce6afe8a2c472"}},
	{"rline", nil, 4, pin{11, "99593023693d76bd335b9b890b84c7cec1f3acfa30e2f82ee0572c306678631d"}, pin{17, "b1fd3f64ebb69985be7343b9a4abfd315dec0d6a0965491516085e33cca8bf35"}},
	{"star", nil, 1, pin{6, "368d6b0489ee7f5d59a0a09212912619daa648bc931eecf418f71ecff3754c19"}, pin{6, "368d6b0489ee7f5d59a0a09212912619daa648bc931eecf418f71ecff3754c19"}},
	{"star", nil, 2, pin{6, "368d6b0489ee7f5d59a0a09212912619daa648bc931eecf418f71ecff3754c19"}, pin{6, "368d6b0489ee7f5d59a0a09212912619daa648bc931eecf418f71ecff3754c19"}},
	{"star", nil, 3, pin{6, "368d6b0489ee7f5d59a0a09212912619daa648bc931eecf418f71ecff3754c19"}, pin{6, "368d6b0489ee7f5d59a0a09212912619daa648bc931eecf418f71ecff3754c19"}},
	{"star", nil, 4, pin{6, "368d6b0489ee7f5d59a0a09212912619daa648bc931eecf418f71ecff3754c19"}, pin{6, "368d6b0489ee7f5d59a0a09212912619daa648bc931eecf418f71ecff3754c19"}},
	{"star-choke", nil, 1, pin{4, "6e608c639e59a02f142c8228be53e5f08bd15c982297fce97b47cb6145124929"}, pin{4, "6e608c639e59a02f142c8228be53e5f08bd15c982297fce97b47cb6145124929"}},
	{"star-choke", nil, 2, pin{4, "6e608c639e59a02f142c8228be53e5f08bd15c982297fce97b47cb6145124929"}, pin{4, "6e608c639e59a02f142c8228be53e5f08bd15c982297fce97b47cb6145124929"}},
	{"star-choke", nil, 3, pin{4, "6e608c639e59a02f142c8228be53e5f08bd15c982297fce97b47cb6145124929"}, pin{4, "6e608c639e59a02f142c8228be53e5f08bd15c982297fce97b47cb6145124929"}},
	{"star-choke", nil, 4, pin{4, "6e608c639e59a02f142c8228be53e5f08bd15c982297fce97b47cb6145124929"}, pin{4, "6e608c639e59a02f142c8228be53e5f08bd15c982297fce97b47cb6145124929"}},
	{"tree", nil, 1, pin{9, "e2620df6d4cb3553b2b2edbd9d6b5bd3aa7d50c855a92558bac244b13c22afe5"}, pin{9, "e2620df6d4cb3553b2b2edbd9d6b5bd3aa7d50c855a92558bac244b13c22afe5"}},
	{"tree", nil, 2, pin{9, "e2620df6d4cb3553b2b2edbd9d6b5bd3aa7d50c855a92558bac244b13c22afe5"}, pin{9, "e2620df6d4cb3553b2b2edbd9d6b5bd3aa7d50c855a92558bac244b13c22afe5"}},
	{"tree", nil, 3, pin{9, "e2620df6d4cb3553b2b2edbd9d6b5bd3aa7d50c855a92558bac244b13c22afe5"}, pin{9, "e2620df6d4cb3553b2b2edbd9d6b5bd3aa7d50c855a92558bac244b13c22afe5"}},
	{"tree", nil, 4, pin{9, "e2620df6d4cb3553b2b2edbd9d6b5bd3aa7d50c855a92558bac244b13c22afe5"}, pin{9, "e2620df6d4cb3553b2b2edbd9d6b5bd3aa7d50c855a92558bac244b13c22afe5"}},
}

// TestRGGBuildPinned pins the bytes of every row of buildPins, built fresh
// and into one workspace shared by all rows: G's and G′'s edge counts and
// CSR SHA-256. The differential tests hold each builder to a reference kept
// beside it; these pins keep a builder and its reference from drifting
// together, and a graph refactor from changing any network.
func TestRGGBuildPinned(t *testing.T) {
	covered := map[string]bool{}
	ws := NewWorkspace()
	for _, row := range buildPins {
		p := row.p
		if p == nil {
			p = buildCases[row.name]
			covered[row.name] = true
		}
		cold, err := BuildSeeded(row.name, p, row.seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", row.name, row.seed, err)
		}
		warm, err := BuildInto(row.name, p, row.seed, ws)
		if err != nil {
			t.Fatalf("%s seed %d: workspace build: %v", row.name, row.seed, err)
		}
		for _, b := range []struct {
			how string
			d   *Dual
		}{{"fresh", cold.Dual}, {"workspace", warm.Dual}} {
			for _, g := range []struct {
				name string
				g    *graph.Graph
				want pin
			}{{"G", b.d.G, row.g}, {"G'", b.d.GPrime, row.gp}} {
				if m, sum := g.g.M(), csrSum(g.g); m != g.want.m || sum != g.want.sum {
					t.Errorf("%s %v seed %d, %s: %s has %d edges, CSR SHA-256 %s; pinned %d edges, %s",
						row.name, p, row.seed, b.how, g.name, m, sum, g.want.m, g.want.sum)
				}
			}
		}
	}
	for _, name := range Names() {
		if !covered[name] {
			t.Errorf("no pin for registered family %q at its buildCases parameters — extend buildPins", name)
		}
	}
}
