// Package longobj implements the DASDBS-style storage of large complex
// objects described in the paper's §4: "if a nested tuple is too large to
// be stored on a single page, the structure information is mapped onto a
// set of header pages, which is disjoint from the set of data pages that
// store the data".
//
// An object is a sequence of tagged components (the root record and each
// sub-object). Objects that fit one page are stored as ordinary records in
// a shared slotted heap ("with smaller objects ... several objects will
// share a single page", §5.3); larger objects get a contiguous run of
// pages: header page(s) holding the component directory, then dedicated
// data pages holding the component bytes back to back.
//
// There is one read, Store.Read, and it keeps apart what the paper prices
// and what it does not. Equation 1 charges a query d1·X_calls + d2·X_pages:
// pages transferred. Read's whole flag chooses those, one way per direct
// storage model:
//
//   - whole: the header pages and every data page — plain DSM, where
//     "complex objects are stored as a whole ... the pages that store the
//     tuple will not be shared" (§3.1) and a query touching an object
//     pays the full object (§4);
//   - not whole: the header first, then only the data pages that hold a
//     selected component — DASDBS-DSM, where "from the set of pages that
//     stores the object, only those pages are retrieved that are actually
//     used in a query" (§3.2).
//
// Bytes copied out of fixed pages into the caller's hands are CPU, which
// the paper does not count, and Read's want chooses those: the components
// the caller will decode (nil: all). So DSM reading a root record fixes
// the whole object — same pages, calls, fixes and hits as reading all of
// it — and moves a hundred bytes, not six thousand; a data page no
// selected component lies on is fixed and never looked at. A directory is
// checked in full, selected entries or not, before anything is copied.
// ReadAllShared(ref) is Read(ref, true, nil).
//
// ChangeComponent implements the §5.3 update anomaly: DASDBS "change
// attribute" operations allocate a page pool of which all pages are
// written immediately, making DASDBS-DSM updates expensive for small
// objects.
//
// A Store has a single owner (the engine it belongs to: one goroutine at a
// time, internal/disk "Ownership") and reuses scratch across calls on
// that assumption: the directory bytes, the page-id list of the read in
// progress, the resolved directory spans, and the result itself. Read
// returns components and an index list that alias that scratch: they are
// valid until the next Read (or ChangeComponent, which reads) on the same
// store and must be decoded, or copied, before it. In exchange a
// steady-state object read, whole or partial, allocates nothing beyond
// the values the caller decodes out — which keeps the benchmark server's
// allocation rate flat under sustained load. Two stores never share
// scratch, so results of different stores (DASDBS-NSM's four relations)
// stay valid side by side. Under `-tags poison` the directory and result
// scratch are filled with 0xDB before each read, so a decoder that reaches
// a component it did not select, directory bytes past the copied prefix or
// the previous read's result reads garbage, loudly.
//
// The write paths stage in scratch of their own. A large Insert and an
// in-place ReplaceAll size the object with one helper (largeLayout, which
// Sizer — the sizing pass of a bulk load — uses too) and lay it out with
// one routine (compose): directory and component bytes go straight from
// the caller's components into page images the store reuses, zeroed per
// use, which WriteRun or the frame copy then consume; a small object's
// record is staged the same way. That scratch is write-only: it is never
// returned to a caller and nothing retains it across a call (the device
// and the pool copy what they are given), so the retention hazard of the
// read scratch, and its poisoning, do not apply.
package longobj
