package cos

// MaskPositions lists the true entries of a mask in traversal order
// restricted to the given control subcarriers.
func MaskPositions(mask [][]bool, ctrlSCs []int) []Pos {
	var out []Pos
	for s := range mask {
		for _, sc := range ctrlSCs {
			if mask[s][sc] {
				out = append(out, Pos{Sym: s, SC: sc})
			}
		}
	}
	return out
}
