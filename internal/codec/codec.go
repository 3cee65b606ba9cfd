// Package codec implements the negotiated per-array wire codecs of
// the data plane: pure transform stages over float64 payloads plus
// the spec grammar consumers use to request them.
//
// Four codecs are defined:
//
//	identity        raw little-endian float64 bytes, the PR 3 wire
//	transpose-delta lossless: per-element u64 bit-pattern delta, then
//	                8-lane byte transpose, then a zero-run-length pass
//	temporal-delta  lossless: u64 delta against the SAME array in the
//	                previous encoded step, then transpose + zero-RLE;
//	                falls back to transpose-delta when no base exists
//	quantize        lossy with a declared absolute error bound b: each
//	                value is stored as round(x/(2b)) and reconstructed
//	                as q*(2b), guaranteeing |x - x'| <= b; values the
//	                grid cannot represent (NaN, Inf, |q| overflow)
//	                force the whole array to a verbatim fallback so
//	                the bound holds by construction
//
// Every encoded payload begins with a one-byte mode: modeRaw (0)
// means the original little-endian float64 bytes follow verbatim
// (used whenever the coded form would be larger, and for the
// quantizer's representability fallback), modeCoded (1) means the
// codec's coded form follows. Lossless codecs therefore never expand
// a payload by more than one byte, and decode is always byte-exact.
//
// The package is deliberately free of any adios/staging imports: it
// transforms slices. Frame framing lives in internal/adios.
package codec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ID identifies a codec on the wire (one byte per variable record).
type ID uint8

const (
	// Identity ships raw little-endian float64 bytes.
	Identity ID = 0
	// TransposeDelta is the lossless spatial codec.
	TransposeDelta ID = 1
	// TemporalDelta is the lossless step-over-step codec.
	TemporalDelta ID = 2
	// Quantize is the lossy bounded-error codec.
	Quantize ID = 3

	numCodecs = 4
)

// Payload mode bytes (first byte of every encoded payload).
const (
	modeRaw   = 0 // verbatim little-endian float64 bytes follow
	modeCoded = 1 // codec-specific coded bytes follow
)

var idNames = [numCodecs]string{"identity", "transpose-delta", "temporal-delta", "quantize"}

// Name returns the wire name of a codec ID ("identity", ...).
func (id ID) Name() string {
	if int(id) < len(idNames) {
		return idNames[id]
	}
	return fmt.Sprintf("codec(%d)", uint8(id))
}

// Names lists every codec this build implements, in ID order — the
// default producer advertisement.
func Names() []string {
	out := make([]string, numCodecs)
	copy(out, idNames[:])
	return out
}

// Choice is one negotiated codec selection: which codec, and for
// Quantize the absolute error bound.
type Choice struct {
	ID    ID
	Bound float64 // absolute error bound; > 0 iff ID == Quantize
}

// String renders the choice in spec grammar ("quantize:0.001").
func (c Choice) String() string {
	if c.ID == Quantize {
		return c.ID.Name() + ":" + strconv.FormatFloat(c.Bound, 'g', -1, 64)
	}
	return c.ID.Name()
}

// parseChoice parses "name" or "quantize:BOUND".
func parseChoice(s string) (Choice, error) {
	name, param, hasParam := strings.Cut(s, ":")
	var id ID
	found := false
	for i, n := range idNames {
		if n == name {
			id, found = ID(i), true
			break
		}
	}
	if !found {
		return Choice{}, fmt.Errorf("codec: unknown codec %q", name)
	}
	if id != Quantize {
		if hasParam {
			return Choice{}, fmt.Errorf("codec: %s takes no parameter", name)
		}
		return Choice{ID: id}, nil
	}
	if !hasParam {
		return Choice{}, fmt.Errorf("codec: quantize requires an error bound, e.g. quantize:1e-3")
	}
	b, err := strconv.ParseFloat(param, 64)
	if err != nil || math.IsNaN(b) || math.IsInf(b, 0) || b <= 0 {
		return Choice{}, fmt.Errorf("codec: bad quantize bound %q (want a finite value > 0)", param)
	}
	return Choice{ID: Quantize, Bound: b}, nil
}

// Spec is a consumer's negotiated codec selection: a default choice
// applied to every float64 array plus per-array overrides keyed by
// bare array name (without the wire's "array/" prefix).
type Spec struct {
	Default  Choice
	PerArray map[string]Choice
}

// ParseSpec parses the hello's codecs entries. Each entry is either a
// bare choice ("transpose-delta", "quantize:1e-3") setting the
// default for all arrays, or "ARRAY=CHOICE" overriding one array.
// Empty or nil entries yield the identity spec.
func ParseSpec(entries []string) (Spec, error) {
	sp := Spec{}
	haveDefault := false
	for _, e := range entries {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if name, choice, ok := strings.Cut(e, "="); ok {
			name, choice = strings.TrimSpace(name), strings.TrimSpace(choice)
			if name == "" {
				return Spec{}, fmt.Errorf("codec: empty array name in entry %q", e)
			}
			ch, err := parseChoice(choice)
			if err != nil {
				return Spec{}, err
			}
			if sp.PerArray == nil {
				sp.PerArray = map[string]Choice{}
			}
			if _, dup := sp.PerArray[name]; dup {
				return Spec{}, fmt.Errorf("codec: array %q has two codec entries", name)
			}
			sp.PerArray[name] = ch
			continue
		}
		ch, err := parseChoice(e)
		if err != nil {
			return Spec{}, err
		}
		if haveDefault {
			return Spec{}, fmt.Errorf("codec: two default codec entries (%q and %q)", sp.Default, e)
		}
		sp.Default = ch
		haveDefault = true
	}
	return sp, nil
}

// IsIdentity reports whether the spec leaves every array uncoded —
// the wire then stays plain BP05 end to end.
func (s Spec) IsIdentity() bool {
	if s.Default.ID != Identity {
		return false
	}
	for _, c := range s.PerArray {
		if c.ID != Identity {
			return false
		}
	}
	return true
}

// UsesTemporal reports whether any selection is the temporal codec —
// such streams carry inter-step state and need keyframe resets.
func (s Spec) UsesTemporal() bool {
	if s.Default.ID == TemporalDelta {
		return true
	}
	for _, c := range s.PerArray {
		if c.ID == TemporalDelta {
			return true
		}
	}
	return false
}

// For returns the choice for the named array (bare name, no prefix).
func (s Spec) For(name string) Choice {
	if c, ok := s.PerArray[name]; ok {
		return c
	}
	return s.Default
}

// Entries renders the spec back to canonical sorted hello entries.
// The identity spec renders to nil (no codecs field on the wire).
func (s Spec) Entries() []string {
	var out []string
	if s.Default.ID != Identity {
		out = append(out, s.Default.String())
	}
	names := make([]string, 0, len(s.PerArray))
	for n := range s.PerArray {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := s.PerArray[n]
		if c.ID == Identity && s.Default.ID == Identity {
			continue // no-op override; canonical form drops it
		}
		out = append(out, n+"="+c.String())
	}
	return out
}

// Key returns a canonical string identity for the spec, usable as a
// map key when sharing one encode among same-spec consumers.
func (s Spec) Key() string { return strings.Join(s.Entries(), ",") }

// UnsupportedCodecError reports a codecs request naming a codec the
// producer does not advertise (or that no build implements). The
// staging server rejects the handshake with it, mirroring the arrays
// negotiation.
type UnsupportedCodecError struct {
	Codec     string
	Advertise []string
}

func (e *UnsupportedCodecError) Error() string {
	if len(e.Advertise) == 0 {
		return fmt.Sprintf("codec: codec %q is not supported", e.Codec)
	}
	return fmt.Sprintf("codec: codec %q is not advertised by the producer (advertised: %s)",
		e.Codec, strings.Join(e.Advertise, ", "))
}

// CheckAdvertised validates a hello's codecs entries against the
// producer's advertisement: every named codec must parse and, when
// advertise is non-nil, appear in it. A nil advertisement accepts any
// codec this build implements; a nil or empty request always passes
// (identity needs no negotiation).
func CheckAdvertised(entries, advertise []string) (Spec, error) {
	sp, err := ParseSpec(entries)
	if err != nil {
		return Spec{}, err
	}
	if advertise == nil {
		return sp, nil
	}
	ok := func(id ID) bool {
		if id == Identity {
			return true
		}
		for _, a := range advertise {
			if a == id.Name() {
				return true
			}
		}
		return false
	}
	if !ok(sp.Default.ID) {
		return Spec{}, &UnsupportedCodecError{Codec: sp.Default.ID.Name(), Advertise: advertise}
	}
	for _, c := range sp.PerArray {
		if !ok(c.ID) {
			return Spec{}, &UnsupportedCodecError{Codec: c.ID.Name(), Advertise: advertise}
		}
	}
	return sp, nil
}

// ParseAdvertise parses a comma-separated producer advertisement
// ("identity,transpose-delta"), validating each name. Empty input
// returns nil: advertise everything.
func ParseAdvertise(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, n := range idNames {
			if n == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("codec: unknown codec %q in advertisement", name)
		}
		out = append(out, name)
	}
	return out, nil
}

// Scratch holds the reusable intermediates of one encode or decode
// stream. Buffers grow to the largest array seen and are reused, so
// steady-state transforms allocate nothing.
type Scratch struct {
	u []uint64 // delta lanes
	b []byte   // transposed bytes
}

func (sc *Scratch) lanes(n int) []uint64 {
	if cap(sc.u) < n {
		sc.u = make([]uint64, n)
	}
	return sc.u[:n]
}

func (sc *Scratch) bytes(n int) []byte {
	if cap(sc.b) < n {
		sc.b = make([]byte, n)
	}
	return sc.b[:n]
}

// --- stage: u64 delta ---

// deltaBits fills dst with the wrapping first-order difference of the
// bit patterns of src: dst[0] = bits(src[0]), dst[i] = bits(src[i]) -
// bits(src[i-1]). Smooth fields leave most high bytes zero.
func deltaBits(dst []uint64, src []float64) {
	prev := uint64(0)
	for i, x := range src {
		b := math.Float64bits(x)
		dst[i] = b - prev
		prev = b
	}
}

// undeltaBits inverts deltaBits: a wrapping prefix sum back into
// float64 bit patterns.
func undeltaBits(dst []float64, src []uint64) {
	acc := uint64(0)
	for i, d := range src {
		acc += d
		dst[i] = math.Float64frombits(acc)
	}
}

// deltaAgainst fills dst with the wrapping difference of src's bit
// patterns against base's (the temporal codec's inner stage). Lengths
// must match.
func deltaAgainst(dst []uint64, src, base []float64) {
	for i, x := range src {
		dst[i] = math.Float64bits(x) - math.Float64bits(base[i])
	}
}

// undeltaAgainst inverts deltaAgainst.
func undeltaAgainst(dst []float64, src []uint64, base []float64) {
	for i, d := range src {
		dst[i] = math.Float64frombits(math.Float64bits(base[i]) + d)
	}
}

// deltaInts fills dst with the wrapping first-order difference of
// quantized integers (the quantizer's inner stage).
func deltaInts(dst []uint64, src []int64) {
	prev := uint64(0)
	for i, q := range src {
		b := uint64(q)
		dst[i] = b - prev
		prev = b
	}
}

// --- stage: 8-lane byte transpose ---

// transpose writes the little-endian bytes of src lane-major into
// dst: dst[b*n+i] = byte b of src[i]. len(dst) must be 8*len(src).
// Grouping same-significance bytes is what turns smooth-field deltas
// into long zero runs for the RLE stage.
func transpose(dst []byte, src []uint64) {
	n := len(src)
	for i, v := range src {
		dst[i] = byte(v)
		dst[n+i] = byte(v >> 8)
		dst[2*n+i] = byte(v >> 16)
		dst[3*n+i] = byte(v >> 24)
		dst[4*n+i] = byte(v >> 32)
		dst[5*n+i] = byte(v >> 40)
		dst[6*n+i] = byte(v >> 48)
		dst[7*n+i] = byte(v >> 56)
	}
}

// untranspose inverts transpose. len(src) must be 8*len(dst).
func untranspose(dst []uint64, src []byte) {
	n := len(dst)
	for i := range dst {
		dst[i] = uint64(src[i]) |
			uint64(src[n+i])<<8 |
			uint64(src[2*n+i])<<16 |
			uint64(src[3*n+i])<<24 |
			uint64(src[4*n+i])<<32 |
			uint64(src[5*n+i])<<40 |
			uint64(src[6*n+i])<<48 |
			uint64(src[7*n+i])<<56
	}
}

// --- stage: zero run-length coding ---

// Token grammar: t < 128 copies t+1 literal bytes that follow;
// t >= 128 emits t-127 zero bytes (runs of 1..128). Worst case
// (no zeros at all) expands n bytes to n + ceil(n/128).

// zrleAppend appends the zero-RLE coding of src to dst.
func zrleAppend(dst, src []byte) []byte {
	i, n := 0, len(src)
	for i < n {
		if src[i] == 0 {
			run := 1
			for i+run < n && run < 128 && src[i+run] == 0 {
				run++
			}
			dst = append(dst, byte(127+run))
			i += run
			continue
		}
		lit := 1
		for i+lit < n && lit < 128 {
			if src[i+lit] == 0 {
				// Absorb isolated zeros into the literal: a zero "run" of
				// length 1 or 2 costs a token byte either way, and breaking
				// the literal adds another token. Only stop for runs >= 3.
				if i+lit+2 < n && src[i+lit+1] == 0 && src[i+lit+2] == 0 {
					break
				}
			}
			lit++
		}
		// Trim trailing zeros off the literal so runs at the boundary
		// code as runs.
		for lit > 1 && src[i+lit-1] == 0 {
			lit--
		}
		dst = append(dst, byte(lit-1))
		dst = append(dst, src[i:i+lit]...)
		i += lit
	}
	return dst
}

// zrleDecode decodes src into dst, which must be exactly the original
// length. Returns an error on truncated input or length mismatch
// (hostile frames must not panic).
func zrleDecode(dst, src []byte) error {
	w := 0
	i, n := 0, len(src)
	for i < n {
		t := src[i]
		i++
		if t >= 128 {
			run := int(t) - 127
			if w+run > len(dst) {
				return fmt.Errorf("codec: zero run overflows payload (%d > %d)", w+run, len(dst))
			}
			zero(dst[w : w+run])
			w += run
			continue
		}
		lit := int(t) + 1
		if i+lit > n {
			return fmt.Errorf("codec: truncated literal (%d bytes missing)", i+lit-n)
		}
		if w+lit > len(dst) {
			return fmt.Errorf("codec: literal overflows payload (%d > %d)", w+lit, len(dst))
		}
		copy(dst[w:], src[i:i+lit])
		i += lit
		w += lit
	}
	if w != len(dst) {
		return fmt.Errorf("codec: decoded %d bytes, want %d", w, len(dst))
	}
	return nil
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// --- composed codecs ---

// appendRaw appends the modeRaw form: the verbatim little-endian
// bytes of src.
func appendRaw(dst []byte, src []float64) []byte {
	dst = append(dst, modeRaw)
	for _, x := range src {
		b := math.Float64bits(x)
		dst = append(dst, byte(b), byte(b>>8), byte(b>>16), byte(b>>24),
			byte(b>>32), byte(b>>40), byte(b>>48), byte(b>>56))
	}
	return dst
}

// decodeRaw decodes a modeRaw body (everything after the mode byte).
func decodeRaw(dst []float64, body []byte) error {
	if len(body) != 8*len(dst) {
		return fmt.Errorf("codec: raw payload is %d bytes, want %d", len(body), 8*len(dst))
	}
	for i := range dst {
		b := body[8*i:]
		v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		dst[i] = math.Float64frombits(v)
	}
	return nil
}

// appendLanes runs the shared tail of every coded form — transpose
// the delta lanes, zero-RLE the bytes — and appends the smaller of
// the coded and raw forms to dst.
func appendLanes(dst []byte, lanes []uint64, src []float64, sc *Scratch) []byte {
	tb := sc.bytes(8 * len(lanes))
	transpose(tb, lanes)
	mark := len(dst)
	dst = append(dst, modeCoded)
	dst = zrleAppend(dst, tb)
	if len(dst)-mark > 1+8*len(src) {
		return appendRaw(dst[:mark], src)
	}
	return dst
}

// decodeLanes inverts appendLanes' coded form into the lane scratch.
func decodeLanes(body []byte, n int, sc *Scratch) ([]uint64, error) {
	tb := sc.bytes(8 * n)
	if err := zrleDecode(tb, body); err != nil {
		return nil, err
	}
	lanes := sc.lanes(n)
	untranspose(lanes, tb)
	return lanes, nil
}

// AppendTransposeDelta appends the transpose-delta coding of src.
func AppendTransposeDelta(dst []byte, src []float64, sc *Scratch) []byte {
	lanes := sc.lanes(len(src))
	deltaBits(lanes, src)
	return appendLanes(dst, lanes, src, sc)
}

// DecodeTransposeDelta decodes into dst, which must already have the
// array's length.
func DecodeTransposeDelta(dst []float64, enc []byte, sc *Scratch) error {
	if len(enc) < 1 {
		return fmt.Errorf("codec: empty payload")
	}
	if enc[0] == modeRaw {
		return decodeRaw(dst, enc[1:])
	}
	lanes, err := decodeLanes(enc[1:], len(dst), sc)
	if err != nil {
		return err
	}
	undeltaBits(dst, lanes)
	return nil
}

// AppendTemporalDelta appends the temporal-delta coding of src
// against base (the same array in the previously encoded step).
// len(base) must equal len(src); callers fall back to
// AppendTransposeDelta when no valid base exists.
func AppendTemporalDelta(dst []byte, src, base []float64, sc *Scratch) []byte {
	lanes := sc.lanes(len(src))
	deltaAgainst(lanes, src, base)
	return appendLanes(dst, lanes, src, sc)
}

// DecodeTemporalDelta decodes into dst against base, the decoder's
// copy of the same array from the frame's base step.
func DecodeTemporalDelta(dst []float64, base []float64, enc []byte, sc *Scratch) error {
	if len(enc) < 1 {
		return fmt.Errorf("codec: empty payload")
	}
	if enc[0] == modeRaw {
		return decodeRaw(dst, enc[1:])
	}
	if len(base) != len(dst) {
		return fmt.Errorf("codec: temporal base has %d elements, want %d", len(base), len(dst))
	}
	lanes, err := decodeLanes(enc[1:], len(dst), sc)
	if err != nil {
		return err
	}
	undeltaAgainst(dst, lanes, base)
	return nil
}

// AppendQuantize appends the bounded-error quantization of src:
// values become integers q = round(x / (2*bound)), reconstructed as
// q*(2*bound). Every element is verified at encode time — any value
// the grid cannot hold within the bound (NaN, Inf, |q| beyond 2^53,
// rounding pathologies) switches the whole array to the verbatim
// modeRaw fallback, so decode(encode(x)) is within bound for every
// finite input and bit-exact for arrays that fall back.
func AppendQuantize(dst []byte, src []float64, bound float64, sc *Scratch) []byte {
	step := 2 * bound
	if math.IsInf(step, 0) {
		// 2*bound overflowed; no quantization grid exists.
		return appendRaw(dst, src)
	}
	lanes := sc.lanes(len(src))
	prev := uint64(0)
	for i, x := range src {
		q := math.Round(x / step)
		// Verify representability and the bound on the actual
		// reconstruction. Beyond 2^53 the float grid itself is coarser
		// than the int mapping is faithful; reject and fall back. Both
		// comparisons are written to treat NaN as a failure.
		if !(math.Abs(q) <= 1<<53) || !(math.Abs(x-q*step) <= bound) {
			return appendRaw(dst, src)
		}
		b := uint64(int64(q))
		lanes[i] = b - prev
		prev = b
	}
	return appendLanes(dst, lanes, src, sc)
}

// DecodeQuantize decodes into dst with the bound the frame declared.
func DecodeQuantize(dst []float64, bound float64, enc []byte, sc *Scratch) error {
	if len(enc) < 1 {
		return fmt.Errorf("codec: empty payload")
	}
	if enc[0] == modeRaw {
		return decodeRaw(dst, enc[1:])
	}
	lanes, err := decodeLanes(enc[1:], len(dst), sc)
	if err != nil {
		return err
	}
	step := 2 * bound
	acc := uint64(0)
	for i, d := range lanes {
		acc += d
		dst[i] = float64(int64(acc)) * step
	}
	return nil
}
