#!/bin/sh
# Fuzz leg: native fuzzing from the committed seed corpora (testdata/fuzz
# beside each target): 10 s over the segment decoder, 5 s each over the
# splice that assembles a host answer from record encodings, the pointer
# snapshot and slot-list decoders, the client's decode of a /headers-batch
# answer (flowrec segments inside JSON) and the reader of a host /snapshot
# body (length-prefixed segment frames). Arbitrary bytes must
# give a value or an error — no panic, no allocation out of proportion to the
# input, a failed restore changes nothing — and whatever decodes must survive
# an encode/decode round trip. `make fuzz` and scripts/verify.sh both run
# this script, so a new target is added here once.
set -eu
cd "$(dirname "$0")/.."

go test ./internal/store -run '^$' -fuzz FuzzDecodeSegment -fuzztime 10s
go test ./internal/flowrec -run '^$' -fuzz FuzzSpliceSegment -fuzztime 5s
go test ./internal/pointer -run '^$' -fuzz FuzzRestore -fuzztime 5s
go test ./internal/pointer -run '^$' -fuzz FuzzDecodeSlots -fuzztime 5s
go test ./internal/rpc -run '^$' -fuzz FuzzHeadersBatchAnswer -fuzztime 5s
go test ./internal/statesync -run '^$' -fuzz FuzzReadSegments -fuzztime 5s
