package costmodel

// ByQuery returns the estimate for the query labelled as in the paper
// ("1a".."3b"); ok is false for unknown labels.
func (e QueryEstimates) ByQuery(label string) (float64, bool) {
	switch label {
	case "1a":
		return e.Q1a, true
	case "1b":
		return e.Q1b, true
	case "1c":
		return e.Q1c, true
	case "2a":
		return e.Q2a, true
	case "2b":
		return e.Q2b, true
	case "3a":
		return e.Q3a, true
	case "3b":
		return e.Q3b, true
	default:
		return 0, false
	}
}
