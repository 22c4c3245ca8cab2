package graph

import (
	"crypto/sha256"
	"encoding/binary"
)

// Fingerprint is a collision-resistant digest of a graph's canonical
// serialization. Two graphs share a fingerprint exactly when they have
// identical vertex ids, labels and adjacency — it identifies a concrete
// in-memory graph, not an isomorphism class. The serving layer keys its
// plan cache on query fingerprints, so a collision would silently reuse
// another query's candidate sets; sha256 makes that practically
// impossible rather than merely unlikely.
type Fingerprint [32]byte

// fingerprintVersion is folded into every digest so a change to the
// serialization below invalidates old fingerprints instead of colliding
// with them.
const fingerprintVersion = "smfp/1\n"

// FingerprintOf computes g's fingerprint by streaming the canonical
// serialization — vertex count, labels in vertex order, then each
// vertex's sorted adjacency list — through sha256. The CSR invariant
// (adjacency sorted, ids dense) makes this serialization canonical
// without any normalization pass. O(|V|+|E|) time, constant extra space,
// once per graph: the graph is immutable, so later calls read the digest
// the first one kept.
func FingerprintOf(g *Graph) Fingerprint {
	g.fpOnce.Do(func() { g.fp = digest(g) })
	return g.fp
}

// digest streams g's canonical serialization through sha256.
func digest(g *Graph) Fingerprint {
	h := sha256.New()
	h.Write([]byte(fingerprintVersion))
	var buf [8]byte
	writeU64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	n := g.NumVertices()
	writeU64(uint64(n))
	word := buf[:4]
	for _, l := range g.labels {
		binary.LittleEndian.PutUint32(word, l)
		h.Write(word)
	}
	for v := 0; v < n; v++ {
		ns := g.Neighbors(Vertex(v))
		writeU64(uint64(len(ns)))
		for _, w := range ns {
			binary.LittleEndian.PutUint32(word, w)
			h.Write(word)
		}
	}
	var fp Fingerprint
	h.Sum(fp[:0])
	return fp
}
