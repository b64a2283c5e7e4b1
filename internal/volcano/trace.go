package volcano

import (
	"fmt"

	"prairie/internal/core"
)

// EventKind classifies optimizer trace events.
type EventKind uint8

// Trace event kinds.
const (
	// EventTransFired: a transformation rule's condition passed and its
	// result was integrated into the memo.
	EventTransFired EventKind = iota
	// EventImplCosted: an implementation alternative was fully costed.
	EventImplCosted
	// EventImplRejected: an alternative failed its condition, produced
	// an infeasible input, or did not satisfy the required properties.
	EventImplRejected
	// EventEnforcerApplied: an enforcer produced a required property.
	EventEnforcerApplied
	// EventWinner: a (group, property vector) optimization completed.
	EventWinner
)

func (k EventKind) String() string {
	switch k {
	case EventTransFired:
		return "trans"
	case EventImplCosted:
		return "costed"
	case EventImplRejected:
		return "rejected"
	case EventEnforcerApplied:
		return "enforcer"
	case EventWinner:
		return "winner"
	default:
		return "?"
	}
}

// Event is one optimizer trace record. Rule debugging is one of
// Prairie's stated goals ("easy-to-understand and easy-to-debug"); the
// trace shows exactly which rules fired where and which alternatives
// were costed or rejected.
type Event struct {
	Kind  EventKind
	Rule  string
	Group GroupID
	// Detail describes the subject: the matched expression, the plan
	// fragment, or the rejection reason.
	Detail string
	Cost   float64
}

// String renders the event as optshell's -trace mode prints it.
func (e Event) String() string {
	s := fmt.Sprintf("[%s] group %d", e.Kind, e.Group)
	if e.Rule != "" {
		s += " " + e.Rule
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	if e.Kind == EventImplCosted || e.Kind == EventEnforcerApplied || e.Kind == EventWinner {
		s += fmt.Sprintf(" (cost %.1f)", e.Cost)
	}
	return s
}

// emit sends an event to the optimizer's OnEvent listener, if any.
func (o *Optimizer) emit(kind EventKind, rule string, g GroupID, detail string, cost float64) {
	if o.OnEvent == nil {
		return
	}
	o.OnEvent(Event{Kind: kind, Rule: rule, Group: g, Detail: detail, Cost: cost})
}

// reqString renders a required property vector compactly.
func reqString(req *core.Descriptor, phys []core.PropID) string {
	s := ""
	for _, p := range phys {
		if !req.Has(p) {
			continue
		}
		v := req.Get(p)
		if v.IsDontCare() {
			continue
		}
		if s != "" {
			s += ","
		}
		s += req.Props().At(p).Name + "=" + v.String()
	}
	if s == "" {
		return "(none)"
	}
	return s
}
