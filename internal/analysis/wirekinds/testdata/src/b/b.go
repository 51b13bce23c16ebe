// Package b is golden input for the wirekinds analyzer: a clean
// registry, but KindPong is declared in kindTable without a constructor
// and not fuzzed.
package b

// Kind tags a wire message type.
type Kind uint8

const (
	KindInvalid Kind = 0
	KindPing    Kind = 1
	KindPong    Kind = 2 // want `kind KindPong has no constructor in kindTable` `kind KindPong has no fuzz seed`
	kindMax     Kind = 3
)

type Ping struct{}
type Pong struct{}

var kindTable = [kindMax]struct {
	name string
	new  func() interface{}
}{
	KindPing: {"Ping", func() interface{} { return &Ping{} }},
	KindPong: {name: "Pong"},
}
