#!/bin/sh
# Fuzz leg: native fuzzing from the committed seed corpora (testdata/fuzz
# beside each target): 10 s over the segment decoder — which also checks
# that it decodes as the reference decoder (internal/flowrec/flowrectest)
# does, that the validating walk accepts exactly what the decoder accepts and
# that every cursor accessor reads each record as decoded — 5 s each over the
# splice that assembles a host answer from record encodings (segment decode
# and walk agree with the same reference decoder, and a range splices
# exactly when it is one valid record), the pointer
# snapshot and slot-list decoders, the bitmap decoders under both (dense and
# sparse pointer sets), the client's check of a /headers-batch
# answer (flowrec segments inside JSON), the client's one-pass reader of
# that answer, which must agree with encoding/json on every body — whether it
# fails and, when not, the decoded value — and decode no segment into the
# body it was handed, the reader of a host /snapshot
# body (flowrec segments back to back) and the decoders of a /diagnose
# report's culprit and flow columns, and the host-side telemetry decoder
# over any commodity or INT packet, which must also decode the same through
# a warmed per-flow path memo as without one and, when commodity, give a
# loop-free walk between the hosts' ToRs, and the minimal perfect hash
# table every /mph body and switch snapshot carries, whose accepted tables
# must look up any key in range without panicking, and the one varint
# reader every binary format above reads through (internal/varint), whose
# Uvarint, Bounded and Varint must agree with encoding/binary's Uvarint and
# Varint on the value, the verdict and the bytes consumed, and the parser of
# the X-SP-Trace header, which must round-trip every context whose trace ID
# /diagnose admits (trace.ValidID). Arbitrary bytes must
# give a value or an error — no panic, no allocation out of proportion to the
# input, a failed restore changes nothing — and whatever decodes must survive
# an encode/decode round trip. A last 5 s drives the event engine's
# ordering model from fuzz bytes: whatever the schedule, stops and run
# calls, events fire in time order, ties in schedule order. Every leg caps
# minimisation of a new interesting input at 100 runs
# (-fuzzminimizetime=100x): at the default 60 s a short leg spends most of
# its time minimising at 0 execs/s. A crasher still fails its leg; only its
# minimisation is shorter. `make fuzz` and scripts/verify.sh both run
# this script, so a new target is added here once.
set -eu
cd "$(dirname "$0")/.."

go test ./internal/store -run '^$' -fuzz FuzzDecodeSegment -fuzztime 10s -fuzzminimizetime=100x
go test ./internal/flowrec -run '^$' -fuzz FuzzSpliceSegment -fuzztime 5s -fuzzminimizetime=100x
go test ./internal/pointer -run '^$' -fuzz FuzzRestore -fuzztime 5s -fuzzminimizetime=100x
go test ./internal/pointer -run '^$' -fuzz FuzzDecodeSlots -fuzztime 5s -fuzzminimizetime=100x
go test ./internal/bitset -run '^$' -fuzz FuzzUnmarshal -fuzztime 5s -fuzzminimizetime=100x
go test ./internal/rpc -run '^$' -fuzz FuzzHeadersBatchAnswer -fuzztime 5s -fuzzminimizetime=100x
go test ./internal/rpc -run '^$' -fuzz FuzzHeadersBatchDecode -fuzztime 5s -fuzzminimizetime=100x
go test ./internal/statesync -run '^$' -fuzz FuzzReadSegments -fuzztime 5s -fuzzminimizetime=100x
go test ./internal/cluster -run '^$' -fuzz FuzzReportColumns -fuzztime 5s -fuzzminimizetime=100x
go test ./internal/eventq -run '^$' -fuzz FuzzFireOrder -fuzztime 5s -fuzzminimizetime=100x
go test ./internal/header -run '^$' -fuzz FuzzDecode -fuzztime 5s -fuzzminimizetime=100x
go test ./internal/mph -run '^$' -fuzz FuzzUnmarshalBinary -fuzztime 5s -fuzzminimizetime=100x
go test ./internal/varint -run '^$' -fuzz FuzzReader -fuzztime 5s -fuzzminimizetime=100x
go test ./internal/trace -run '^$' -fuzz FuzzParseRemote -fuzztime 5s -fuzzminimizetime=100x
