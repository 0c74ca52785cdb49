package dfg

// Canonical reports whether UnmarshalJSON decodes data on its
// single-pass path rather than through encoding/json.
func Canonical(data []byte) bool {
	_, _, ok := parseCanonical(data)
	return ok
}
