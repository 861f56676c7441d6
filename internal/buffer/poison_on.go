//go:build poison

package buffer

// poison is on under `-tags poison`: FixRun nil-fills its previous result
// and abandons it instead of reusing it, so a caller that kept a result
// past the next FixRun reads nil frames from then on — loudly — instead
// of the next run's frames.
const poison = true
