//go:build poison

package server

import (
	"bytes"
	"net/http"
	"testing"
)

// keepingWriter is a ResponseWriter with the bug the poison tag exists to
// catch: it keeps the slice Write hands it instead of copying it.
type keepingWriter struct {
	h    http.Header
	kept []byte
}

func (w *keepingWriter) Header() http.Header { return w.h }
func (w *keepingWriter) WriteHeader(int)     {}
func (w *keepingWriter) Write(p []byte) (int, error) {
	w.kept = p
	return len(p), nil
}

// TestKeptResponseBytesReadPoison: the bytes WriteJSON hands a
// ResponseWriter belong to a pooled buffer; kept past the call, they read
// 0xDB, never a later response.
func TestKeptResponseBytesReadPoison(t *testing.T) {
	w := &keepingWriter{h: make(http.Header)}
	WriteJSON(w, http.StatusOK, ErrorResponse{Error: "kept"})
	if len(w.kept) == 0 || !bytes.Equal(w.kept, bytes.Repeat([]byte{0xDB}, len(w.kept))) {
		t.Errorf("kept response bytes read %q", w.kept)
	}
}
