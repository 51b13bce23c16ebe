// Package a is golden input for the wirekinds analyzer: registry
// violations. The kinds.golden fixture registers 1 KindA, 3 KindB and
// 5 KindGone.
package a

// Kind tags a wire message type.
type Kind uint8

const (
	KindInvalid Kind = 0
	KindA       Kind = 1 // want `kind KindGone \(value 5\) is registered in kinds\.golden but missing from the enum`
	KindB       Kind = 2 // want `kind KindB has value 2 but kinds\.golden registers 3`
	KindLow     Kind = 4 // want `new kind KindLow has value 4, not above the registry high-water mark 5` `kind KindLow is not registered in kinds\.golden; append "4 KindLow" to it`
	KindFresh   Kind = 6 // want `kind KindFresh is not registered in kinds\.golden; append "6 KindFresh" to it`
	kindMax     Kind = 7
)

type A struct{}
type B struct{}
type Low struct{}
type Fresh struct{}

// kindTable constructs every kind, so no dispatch findings mix in here.
var kindTable = [kindMax]struct {
	name string
	new  func() interface{}
}{
	KindA:     {"A", func() interface{} { return &A{} }},
	KindB:     {"B", func() interface{} { return &B{} }},
	KindLow:   {name: "Low", new: func() interface{} { return &Low{} }},
	KindFresh: {"Fresh", func() interface{} { return &Fresh{} }},
}
