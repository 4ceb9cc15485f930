package flowrec_test

import (
	"switchpointer/internal/flowrec"
	"switchpointer/internal/flowrec/flowrectest"
)

// The package's tests check every decode against flowrectest's reference
// decoder, which imports flowrec and so reaches them only from here.
func init() {
	flowrec.Reference.DecodeSegment = flowrectest.DecodeSegment
	flowrec.Reference.DecodeRecord = flowrectest.DecodeRecord
}
