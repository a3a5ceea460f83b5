package enum

import (
	"encoding/json"
	"strings"
	"testing"
)

type color uint8

const (
	red color = iota + 1
	green
	blue
	colorEnd
)

var colorNames = New(map[color]string{red: "red", green: "green", blue: "blue"}, colorEnd)

func (c color) MarshalJSON() ([]byte, error)  { return colorNames.Marshal(c) }
func (c *color) UnmarshalJSON(b []byte) error { return colorNames.Unmarshal(b, c) }

type fooBar int

func TestStringParse(t *testing.T) {
	for c := red; c < colorEnd; c++ {
		back, err := colorNames.Parse(colorNames.String(c))
		if err != nil || back != c {
			t.Errorf("Parse(%q) = %d, %v; want %d", colorNames.String(c), back, err, c)
		}
	}
	for _, c := range []color{0, colorEnd, 255} {
		if colorNames.Valid(c) {
			t.Errorf("Valid(%d) = true", c)
		}
	}
	if got := colorNames.String(0); got != "color(0)" {
		t.Errorf("String(0) = %q, want the color(0) fallback", got)
	}
	if got := colorNames.String(colorEnd); got != "color(4)" {
		t.Errorf("String(end) = %q, want the color(4) fallback", got)
	}
	_, err := colorNames.Parse("mauve")
	if err == nil || err.Error() != `enum: unknown color "mauve" (want red, green or blue)` {
		t.Errorf("Parse(mauve) error = %v", err)
	}
	if _, err := colorNames.Parse(""); err == nil {
		t.Error("Parse accepted the empty name")
	}
	two := New(map[fooBar]string{0: "foo", 1: "bar"}, 2)
	if _, err := two.Parse("baz"); err == nil || err.Error() != `enum: unknown foo bar "baz" (want foo or bar)` {
		t.Errorf("two-name Parse error = %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := struct{ C []color }{[]color{red, green, blue}}
	b, err := json.Marshal(in)
	if err != nil || string(b) != `{"C":["red","green","blue"]}` {
		t.Fatalf("Marshal = %s, %v", b, err)
	}
	var out struct{ C []color }
	if err := json.Unmarshal(b, &out); err != nil || len(out.C) != 3 || out.C[0] != red || out.C[2] != blue {
		t.Fatalf("Unmarshal = %v, %v", out, err)
	}
	if err := json.Unmarshal([]byte(`{"C":["mauve"]}`), &out); err == nil || !strings.Contains(err.Error(), `"mauve"`) {
		t.Errorf("Unmarshal of an unknown name: %v", err)
	}
	if err := json.Unmarshal([]byte(`{"C":[1]}`), &out); err == nil {
		t.Error("Unmarshal accepted a number")
	}
	if b, err := json.Marshal(colorEnd); err != nil || string(b) != `"color(4)"` {
		t.Errorf("Marshal(end) = %s, %v", b, err)
	}
}

// TestNewPanics: a constant without a name, two constants with one name,
// or a name for a value at or past the sentinel fails at init.
func TestNewPanics(t *testing.T) {
	cases := map[string]func(){
		"missing":   func() { New(map[color]string{red: "red", blue: "blue"}, colorEnd) },
		"empty":     func() { New(map[color]string{red: "red", green: "", blue: "blue"}, colorEnd) },
		"unnamed":   func() { New(map[color]string{red: "red", green: "green", blue: "blue"}, colorEnd+1) },
		"duplicate": func() { New(map[color]string{red: "red", green: "red", blue: "blue"}, colorEnd) },
		"past-end":  func() { New(map[color]string{red: "red", green: "green", blue: "blue"}, blue) },
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("New did not panic")
				}
			}()
			build()
		})
	}
}
