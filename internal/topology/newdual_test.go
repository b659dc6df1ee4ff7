package topology

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"amac/internal/graph"
)

// refValid is the invariant check NewDual replaces, kept as its reference:
// equal node counts and E ⊆ E′ by IsSubgraphOf's own merge walk.
func refValid(g, gp *graph.Graph) bool {
	return g.N() == gp.N() && g.IsSubgraphOf(gp)
}

// bitsMismatch describes the first way d's reliability words differ from
// their definition — one word per 64 G′ arcs, bit i equal to G.HasEdge on
// G′ arc i, no bit past the last arc — or returns "" when they match.
func bitsMismatch(d *Dual) string {
	off, arcs := d.GPrime.CSR()
	words := d.ReliableArcs()
	if len(words) != (len(arcs)+63)/64 {
		return fmt.Sprintf("%d words for %d arcs", len(words), len(arcs))
	}
	for u := 0; u < d.N(); u++ {
		for i := off[u]; i < off[u+1]; i++ {
			got := words[i>>6]>>(i&63)&1 == 1
			if want := d.G.HasEdge(graph.NodeID(u), arcs[i]); got != want {
				return fmt.Sprintf("arc %d (%d→%d): bit %v, G.HasEdge %v", i, u, arcs[i], got, want)
			}
		}
	}
	if r := len(arcs) % 64; r != 0 && words[len(words)-1]>>r != 0 {
		return fmt.Sprintf("bits set past the last of %d arcs", len(arcs))
	}
	return ""
}

// TestBenchmarkNetworksReliableBits holds the reliability words of
// buildPins' benchmark networks, built fresh and into a workspace, to
// G.HasEdge on every G′ arc.
func TestBenchmarkNetworksReliableBits(t *testing.T) {
	ws := NewWorkspace()
	for _, row := range buildPins {
		if row.p == nil {
			continue
		}
		cold, err := BuildSeeded(row.name, row.p, row.seed)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		warm, err := BuildInto(row.name, row.p, row.seed, ws)
		if err != nil {
			t.Fatalf("%s: workspace build: %v", row.name, err)
		}
		for _, d := range []*Dual{cold.Dual, warm.Dual} {
			if msg := bitsMismatch(d); msg != "" {
				t.Errorf("%s %v seed %d: %s", row.name, row.p, row.seed, msg)
			}
		}
	}
}

// TestNewDualRejects pins NewDual's rejections and their wording, and that
// Validate accepts only what NewDual made: a hand-built literal, even one
// with no arcs, a made dual whose graph was swapped afterwards and one
// whose G′ gained an edge in place are rejected.
func TestNewDualRejects(t *testing.T) {
	line := Line(4).G
	// bypass's rows hold a G′ arc past each G arc of edge, so only the
	// arc's own comparison finds the missing edge.
	edge, bypass := new(graph.Graph), new(graph.Graph)
	edge.SetEdges(3, [][2]graph.NodeID{{0, 1}})
	bypass.SetEdges(3, [][2]graph.NodeID{{0, 2}, {1, 2}})
	for _, tc := range []struct {
		name  string
		g, gp *graph.Graph
		want  string
	}{
		{"nil G", nil, line, `topology: nil graph in dual "nil G"`},
		{"nil G'", line, nil, `topology: nil graph in dual "nil G'"`},
		{"node counts", line, graph.New(3), `topology: dual "node counts" has |V(G)|=4 but |V(G')|=3`},
		{"E not in E'", line, graph.New(4), `topology: dual "E not in E'" violates E ⊆ E'`},
		{"bypass", edge, bypass, `topology: dual "bypass" violates E ⊆ E'`},
	} {
		d, err := NewDual(tc.g, tc.gp, tc.name)
		if err == nil || d != nil || err.Error() != tc.want {
			t.Errorf("%s: NewDual = (%v, %v), want the error %q", tc.name, d, err, tc.want)
		}
	}
	for _, d := range []*Dual{
		{G: graph.New(0), GPrime: graph.New(0), Name: "empty literal"},
		{G: line, GPrime: line, Name: "literal"},
	} {
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "was not made by NewDual") {
			t.Errorf("%s: Validate = %v, want the not-made-by-NewDual error", d.Name, err)
		}
	}
	d, err := NewDual(line, line, "line")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate rejected a dual NewDual made: %v", err)
	}
	d.GPrime = graph.New(4)
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted a dual whose G′ was swapped after NewDual")
	}
	// A rebuild in place keeps the pointers NewDual saw; a changed edge
	// count is what Validate can see of it.
	g, gp := new(graph.Graph), new(graph.Graph)
	g.SetEdges(3, [][2]graph.NodeID{{0, 1}})
	gp.SetEdges(3, [][2]graph.NodeID{{0, 1}})
	rebuilt, err := NewDual(g, gp, "rebuilt")
	if err != nil {
		t.Fatal(err)
	}
	gp.SetEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}})
	want := `topology: dual "rebuilt" was rebuilt after NewDual`
	if err := rebuilt.Validate(); err == nil || err.Error() != want {
		t.Errorf("Validate after G′ grew in place = %v, want %q", err, want)
	}
}

// decodeDualInput turns fuzz bytes into a pair of graphs. Byte 0 is n mod
// 65, byte 1 the mode mod 3, byte 2 the independent G′'s node count mod 65;
// every later byte pair (a, b) is an edge (a&0x7f, b) mod the node count,
// in list B when a's high bit is set and in list A otherwise, with
// self-loops dropped. G is list A on n nodes, and G′ is
//   - mode 0: G ∪ list B on n nodes, so the dual is valid;
//   - mode 1: list B alone on byte 2's node count, so it may be anything;
//   - mode 2: G itself.
func decodeDualInput(data []byte) (g, gp *graph.Graph) {
	hdr := make([]byte, 3)
	copy(hdr, data)
	n, mode, np := int(hdr[0])%65, hdr[1]%3, int(hdr[2])%65
	if mode != 1 {
		np = n
	}
	var a, b [][2]graph.NodeID
	for i := 3; i+1 < len(data); i += 2 {
		if data[i]&0x80 == 0 {
			if n > 0 && int(data[i])%n != int(data[i+1])%n {
				a = append(a, [2]graph.NodeID{graph.NodeID(int(data[i]) % n), graph.NodeID(int(data[i+1]) % n)})
			}
		} else if np > 0 && int(data[i]&0x7f)%np != int(data[i+1])%np {
			b = append(b, [2]graph.NodeID{graph.NodeID(int(data[i]&0x7f) % np), graph.NodeID(int(data[i+1]) % np)})
		}
	}
	g = new(graph.Graph)
	g.SetEdges(n, slices.Clone(a))
	switch mode {
	case 0:
		gp = new(graph.Graph)
		gp.SetEdges(n, append(a, b...))
	case 1:
		gp = new(graph.Graph)
		gp.SetEdges(np, b)
	default:
		gp = g
	}
	return g, gp
}

// FuzzNewDualMatchesReference holds NewDual to refValid and to the bits'
// definition (bitsMismatch) on decoded graph pairs: it succeeds exactly
// when the reference accepts, and a made dual's words are right, and equal
// from a workspace whose words an earlier, denser dual dirtied. Mode 2
// passes G twice, as every G′ = G builder does (Reliable).
func FuzzNewDualMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, gp := decodeDualInput(data)
		d, err := NewDual(g, gp, "fuzz")
		if want := refValid(g, gp); (err == nil) != want {
			t.Fatalf("NewDual error %v, reference valid %v", err, want)
		}
		if err != nil {
			return
		}
		if msg := bitsMismatch(d); msg != "" {
			t.Fatal(msg)
		}
		ws := NewWorkspace()
		complete := new(graph.Graph)
		var all [][2]graph.NodeID
		for u := 0; u < gp.N(); u++ {
			for v := u + 1; v < gp.N(); v++ {
				all = append(all, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)})
			}
		}
		complete.SetEdges(gp.N(), all)
		mustDual(ws, complete, complete, "dirty")
		if warm := mustDual(ws, g, gp, "warm"); !slices.Equal(warm.ReliableArcs(), d.ReliableArcs()) {
			t.Fatalf("workspace words %x, fresh %x", warm.ReliableArcs(), d.ReliableArcs())
		}
	})
}
