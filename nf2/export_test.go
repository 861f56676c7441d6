package nf2

// Kind returns the value's kind tag.
func (v Value) Kind() Kind { return v.kind }
