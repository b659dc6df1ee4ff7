package sim

import "fmt"

// PayloadKind tags the representation of a typed Payload value. Kinds above
// the built-ins are handed out by RegisterPayloadKind, which pairs each kind
// with a boxing function that reconstructs the dynamic Go value the payload
// stands for.
type PayloadKind uint8

const (
	// PayloadNone is the zero payload: no argument at all. Its Value is nil,
	// matching the untyped events that used to carry a nil interface.
	PayloadNone PayloadKind = iota
	// payloadRetired is the tag of the deleted boxed-value payload. It
	// stays reserved so every later tag, and with it every encoded trace,
	// keeps its number; TraceReader rejects it.
	payloadRetired
	// PayloadInt carries a bare integer in A: instance identifiers, phase
	// numbers, node ids. Rendering matches the old boxed integer (`%v` of
	// any integer type prints the same digits).
	PayloadInt

	// payloadKindsReserved is the first kind available to RegisterPayloadKind.
	payloadKindsReserved
)

// Payload is the typed message representation threaded through broadcasts,
// arrivals and trace events: a kind tag plus three small scalar operands,
// plain data with no references. It replaces the boxed `any` payload path —
// constructing and copying a Payload allocates nothing, which is what makes
// warm trials allocation-free — while Value() recovers the exact dynamic
// value the old path carried, so rendered traces are byte-identical.
//
// The operand fields are free-form per kind: a registered kind's boxer and
// its encoder agree on the layout (e.g. a message payload stores its id in A
// and its origin in B). Payloads compare with ==, which the adversarial
// scheduler relies on to track its two tagged messages.
type Payload struct {
	Kind    PayloadKind
	A, B, C int64
}

// payloadBoxers maps registered kinds to their boxing functions. Index 0..2
// (the built-ins) stay nil; Value handles them inline.
var payloadBoxers [1 << 8]func(Payload) any

// nextPayloadKind is the next kind RegisterPayloadKind hands out.
var nextPayloadKind = payloadKindsReserved

// RegisterPayloadKind allocates a new payload kind and installs box as its
// boxing function: box reconstructs the dynamic Go value a payload of this
// kind stands for (Value calls it). Registration happens in package init
// functions and is not synchronized; registering more kinds than the tag
// byte can hold panics.
func RegisterPayloadKind(box func(Payload) any) PayloadKind {
	if box == nil {
		panic("sim: RegisterPayloadKind with nil boxer")
	}
	if int(nextPayloadKind) >= len(payloadBoxers) {
		panic("sim: payload kind space exhausted")
	}
	k := nextPayloadKind
	nextPayloadKind++
	payloadBoxers[k] = box
	return k
}

// registered reports whether Value can render payloads of kind k: the
// built-ins PayloadNone and PayloadInt, or a kind with a registered boxer.
func (k PayloadKind) registered() bool {
	return k == PayloadNone || k == PayloadInt || payloadBoxers[k] != nil
}

// Int wraps a bare integer as a PayloadInt payload.
func Int(v int64) Payload { return Payload{Kind: PayloadInt, A: v} }

// IsZero reports whether p is the zero (PayloadNone) payload with no
// operands set.
func (p Payload) IsZero() bool { return p == Payload{} }

// Value boxes the payload back into the dynamic Go value it stands for:
// nil for PayloadNone, an int64 for PayloadInt, and the registered boxer's
// result otherwise. It allocates (it un-does the typed representation), so it
// belongs in post-run consumers — renderers, checkers, tests — never on the
// event hot path.
func (p Payload) Value() any {
	switch p.Kind {
	case PayloadNone:
		return nil
	case PayloadInt:
		return p.A
	default:
		if box := payloadBoxers[p.Kind]; box != nil {
			return box(p)
		}
		panic(fmt.Sprintf("sim: payload kind %d has no registered boxer", p.Kind))
	}
}
