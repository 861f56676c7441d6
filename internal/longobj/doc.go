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
// Read paths mirror the two direct storage models:
//
//   - ReadAll fetches header and all data pages — the plain DSM behaviour
//     ("complex objects are stored as a whole ... the pages that store the
//     tuple will not be shared", §3.1);
//   - ReadParts fetches the header first and then only the data pages that
//     hold requested components — the DASDBS-DSM behaviour ("from the set
//     of pages that stores the object, only those pages are retrieved that
//     are actually used in a query", §3.2).
//
// ChangeComponent implements the §5.3 update anomaly: DASDBS "change
// attribute" operations allocate a page pool of which all pages are
// written immediately, making DASDBS-DSM updates expensive for small
// objects.
//
// A Store has a single owner (the engine it belongs to: one request, one
// goroutine at a time — the rule iostat's plain counters already rest on)
// and reuses scratch across calls on that assumption: the header bytes, the
// page-id list of the read in progress, the resolved directory spans, and
// the results themselves. ReadAllShared and ReadParts return components —
// and ReadParts its index list — that alias that scratch: they are valid
// until the next ReadAllShared or ReadParts on the same store and must be
// decoded (or copied) before it; ReadAll is the variant whose result
// belongs to the caller. In exchange a steady-state object read, whole or
// partial, allocates nothing beyond the values the caller decodes out —
// which keeps the benchmark server's allocation rate flat under sustained
// load. Two stores never share scratch, so results of different stores
// (DASDBS-NSM's four relations) stay valid side by side.
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
// read scratch — and the poisoning mode proposed for it — does not apply.
package longobj
