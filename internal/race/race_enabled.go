//go:build race

package race

// Enabled is true when the build has the race detector compiled in.
const Enabled = true

// AppendValidated is append(dst, src...) unseen by the detector.
//
//go:norace
func AppendValidated(dst, src []byte) []byte {
	for _, b := range src {
		dst = append(dst, b)
	}
	return dst
}
