// Package c is golden input for the wirekinds analyzer: retired kinds.
// The kinds.golden fixture registers 1 KindLive, and retires 2 KindOld,
// 3 KindRevived and 4 KindDropped. KindOld is retired as it should be:
// no constructor and no fuzz seed, and nothing to report.
package c

// Kind tags a wire message type.
type Kind uint8

const (
	KindInvalid Kind = 0
	KindLive    Kind = 1 // want `kind KindDropped \(value 4\) is registered in kinds\.golden but missing from the enum`
	KindOld     Kind = 2
	KindRevived Kind = 3 // want `retired kind KindRevived has a constructor in kindTable: a retired number is never reused`
	kindMax     Kind = 5
)

type Live struct{}
type Revived struct{}

var kindTable = [kindMax]struct {
	name string
	new  func() interface{}
}{
	KindLive:    {"Live", func() interface{} { return &Live{} }},
	KindOld:     {name: "Old"},
	KindRevived: {"Revived", func() interface{} { return &Revived{} }},
}
