package complexobj

// OpenSnapshot opens one view of a stored model: OpenBase + Base.Open,
// the base handle released at once (the view holds its own reference).
func OpenSnapshot(path string, kind ModelKind, opts Options) (*DB, error) {
	base, err := OpenBase(path, kind)
	if err != nil {
		return nil, err
	}
	defer base.Close()
	return base.Open(opts)
}
