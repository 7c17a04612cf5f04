// Package reach is TestMethodsThroughInterfacesFixture's fixture: each
// type's methods are reached, or not, through the interfaces it is
// converted to. The comment on each method says which.
package reach

import "fmt"

// Memory is what New returns.
type Memory interface{ Write(addr uint64) }

// Device declares Read as well; Shredder satisfies it but is never
// converted to it.
type Device interface {
	Read(addr uint64) []byte
	Write(addr uint64)
}

// Setter is only ever asserted to, Closer only named in a type switch.
type (
	Setter interface{ Set(v int) }
	Closer interface{ Close() }
)

type Shredder struct{}

func (*Shredder) Write(uint64)       {} // reached: returned as Memory
func (*Shredder) Read(uint64) []byte { return nil }
func (*Shredder) Set(int)            {}            // reached: asserted through Memory
func (*Shredder) Close()             {}            // reached: a type switch case
func (*Shredder) String() string     { return "" } // reached: held as Memory, it may be printed

type Controller struct{}

func (*Controller) Write(uint64)       {}             // reached: passed as Device
func (*Controller) Read(uint64) []byte { return nil } // reached: passed as Device

type Label struct{}

func (Label) String() string { return "" } // reached: printed as any

// Quiet is used, but never as an interface.
type Quiet struct{ n int }

func (Quiet) String() string { return "" }

type holder struct{ d Device }

type Counter struct{}

func (*Counter) Write(uint64)       {}             // reached: a Device field's value
func (*Counter) Read(uint64) []byte { return nil } // reached: a Device field's value

type (
	Declared struct{}
	Assigned struct{}
	Sent     struct{}
)

func (*Declared) Write(uint64) {} // reached: a Memory variable's initial value
func (*Assigned) Write(uint64) {} // reached: assigned to a Memory variable
func (*Sent) Write(uint64)     {} // reached: sent on a channel of Memory

func New() Memory { return &Shredder{} }

func Wear(d Device) {}

func Use(m Memory, ch chan Memory) string {
	if s, ok := m.(Setter); ok {
		s.Set(1)
	}
	switch v := m.(type) {
	case Closer:
		v.Close()
	}
	Wear(&Controller{})
	_ = holder{d: &Counter{}}
	var d Memory = &Declared{}
	d = &Assigned{}
	ch <- &Sent{}
	_ = Quiet{n: 1}.n
	return fmt.Sprint(Label{}, d)
}
