// Package enum is the one name table behind the system's integer enums:
// admission reasons, wire ops, scenario verdicts, QoS verdicts, estimator
// families, degraded and placement policies, regimes. Each enum declares
// its names once, as a map keyed by its constants, and closes its iota
// block with an unexported end sentinel; New checks at package init that
// every value from the smallest named constant up to the sentinel has
// exactly one non-empty, unique name, so a constant added without a name
// fails every test binary that links the package.
//
// The names are wire, config and golden contract: String renders them,
// Parse is its inverse, and Marshal/Unmarshal carry them in JSON.
// A value outside the table renders as "Type(n)".
package enum

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"unicode"
)

// Integer is the underlying type of an enum.
type Integer interface {
	~int | ~int32 | ~uint8
}

// Table maps the constants [first, end) of one enum type to their names.
type Table[T Integer] struct {
	first T
	names []string
	typ   string // the type's name, for the "Type(n)" fallback
	err   string // "pkg: unknown noun", the Parse error prefix
}

// New builds the table for the constants of names, which must cover every
// value from the smallest key up to end (the enum's sentinel, exclusive)
// with distinct non-empty names. It panics otherwise: a table is built at
// package init, so a gap is a bug that no binary survives.
func New[T Integer](names map[T]string, end T) *Table[T] {
	rt := reflect.TypeFor[T]()
	t := &Table[T]{first: end, typ: rt.Name()}
	for v := range names {
		t.first = min(t.first, v)
	}
	seen := map[string]bool{}
	for v := t.first; v < end; v++ {
		name := names[v]
		if name == "" {
			panic(fmt.Sprintf("enum: %s(%d) has no name", t.typ, int64(v)))
		}
		if seen[name] {
			panic(fmt.Sprintf("enum: %s(%d) repeats the name %q", t.typ, int64(v), name))
		}
		seen[name] = true
		t.names = append(t.names, name)
	}
	if len(names) != len(t.names) {
		panic(fmt.Sprintf("enum: %s names a value at or past its end %d", t.typ, int64(end)))
	}
	pkg := rt.PkgPath()
	t.err = pkg[strings.LastIndexByte(pkg, '/')+1:] + ": unknown " + noun(t.typ)
	return t
}

// noun spells a type name as words: DegradedPolicy -> "degraded policy".
func noun(typ string) string {
	var b strings.Builder
	for i, r := range typ {
		if unicode.IsUpper(r) {
			if i > 0 {
				b.WriteByte(' ')
			}
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}

// Valid reports whether v is one of the table's constants.
func (t *Table[T]) Valid(v T) bool { return v >= t.first && int(v-t.first) < len(t.names) }

// String returns v's name, or "Type(n)" for a value outside the table.
func (t *Table[T]) String(v T) string {
	if t.Valid(v) {
		return t.names[v-t.first]
	}
	return fmt.Sprintf("%s(%d)", t.typ, int64(v))
}

// Want lists the names in order, as "a, b or c".
func (t *Table[T]) Want() string {
	n := len(t.names)
	if n == 1 {
		return t.names[0]
	}
	return strings.Join(t.names[:n-1], ", ") + " or " + t.names[n-1]
}

// Parse is the inverse of String over the table's constants.
func (t *Table[T]) Parse(s string) (T, error) {
	for i, name := range t.names {
		if name == s {
			return t.first + T(i), nil
		}
	}
	return 0, fmt.Errorf("%s %q (want %s)", t.err, s, t.Want())
}

// Marshal encodes v as its name in JSON, for the enum's MarshalJSON.
func (t *Table[T]) Marshal(v T) ([]byte, error) { return json.Marshal(t.String(v)) }

// Unmarshal decodes a JSON name into *v, for the enum's UnmarshalJSON.
func (t *Table[T]) Unmarshal(b []byte, v *T) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	p, err := t.Parse(s)
	if err != nil {
		return err
	}
	*v = p
	return nil
}
