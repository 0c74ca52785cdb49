package dfg

// Canonical reports whether UnmarshalJSON decodes data on its
// single-pass path rather than through encoding/json.
func Canonical(data []byte) bool {
	_, _, ok := parseCanonical(data)
	return ok
}

// Capacity returns the capacity the graph's operation list was sized
// for.
func Capacity(g *Graph) int { return cap(g.ops) }
