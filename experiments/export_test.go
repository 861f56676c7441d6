package experiments

import "complexobj/report"

// All regenerates every table and figure in paper order and returns the
// rendered tables: the concatenation of every Section.
func (s *Suite) All() ([]*report.Table, error) {
	var out []*report.Table
	for _, sec := range Sections() {
		ts, err := sec.Build(s)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}
