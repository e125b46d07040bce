package algorithms

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/storage/csr"
)

// FuzzCDLP differentially checks CDLP against refCDLP on small graphs. The
// input decodes as: n = 1 + in[0]%64 vertices, rounds = 1 + in[1]%12,
// fragments = 1 + in[2]%8, CSC built when in[3] is odd, then one edge per
// following byte pair (src, dst) mod n; self-loops and duplicates stay.
func FuzzCDLP(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		n := 1 + int(in[0])%64
		rounds := 1 + int(in[1])%12
		frags := 1 + int(in[2])%8
		csc := in[3]%2 == 1
		var edges []csr.Edge
		for i := 4; i+1 < len(in); i += 2 {
			edges = append(edges, csr.Edge{Src: graph.VID(int(in[i]) % n), Dst: graph.VID(int(in[i+1]) % n)})
		}
		g, err := csr.Build(n, edges, csr.Options{BuildCSC: csc})
		if err != nil {
			t.Fatal(err)
		}
		checkCDLP(t, g, rounds, frags)
	})
}
