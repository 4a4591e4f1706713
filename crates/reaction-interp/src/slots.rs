//! Shared slot resolution for reaction bodies.
//!
//! Both the bytecode VM and the IR layer need the same answer to "which
//! persistent slot does `static` name X occupy?". Before this module each
//! consumer re-derived it from the AST independently; now there is exactly
//! one pre-order walk, and the VM compiles against the result.
//!
//! Slot assignment is *encounter order*: a pre-order walk of the statement
//! tree assigns the next free slot to the first `static` declaration of each
//! name. All `static` declarations of one name share a slot, mirroring the
//! tree-walker's single flat statics map.

use p4r_lang::creact::{Body, Stmt};
use std::collections::HashMap;
use std::fmt;

/// Error from slot collection. The only way collection can fail is by
/// exhausting the 16-bit slot index space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TooManyStatics;

impl fmt::Display for TooManyStatics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "too many statics")
    }
}

impl std::error::Error for TooManyStatics {}

/// Pre-resolved persistent slots for one reaction body.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReactionSlots {
    /// Static names in slot order (index == slot).
    names: Vec<String>,
    map: HashMap<String, u16>,
    /// How many `static` declarators name each slot.
    decls: Vec<u32>,
}

impl ReactionSlots {
    /// Walk `body` and assign a slot to every `static` declaration.
    pub fn collect(body: &Body) -> Result<Self, TooManyStatics> {
        let mut slots = ReactionSlots::default();
        slots.visit_all(&body.stmts)?;
        Ok(slots)
    }

    /// Slot of a static name, if any.
    pub fn slot(&self, name: &str) -> Option<u16> {
        self.map.get(name).copied()
    }

    /// How many `static` declarators in the body name `slot`.
    pub(crate) fn declarations(&self, slot: u16) -> u32 {
        self.decls.get(usize::from(slot)).copied().unwrap_or(0)
    }

    /// Number of static slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Static names in slot order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Name → slot pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u16)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i as u16))
    }

    fn visit_all(&mut self, stmts: &[Stmt]) -> Result<(), TooManyStatics> {
        for s in stmts {
            self.visit(s)?;
        }
        Ok(())
    }

    fn visit(&mut self, s: &Stmt) -> Result<(), TooManyStatics> {
        match s {
            Stmt::Decl {
                is_static, decls, ..
            } => {
                if *is_static {
                    for d in decls {
                        let next = self.names.len();
                        if next >= usize::from(u16::MAX) {
                            return Err(TooManyStatics);
                        }
                        let slot = *self.map.entry(d.name.clone()).or_insert_with(|| {
                            self.names.push(d.name.clone());
                            self.decls.push(0);
                            next as u16
                        });
                        self.decls[usize::from(slot)] += 1;
                    }
                }
                Ok(())
            }
            Stmt::Block(inner) => self.visit_all(inner),
            Stmt::If { then_, else_, .. } => {
                self.visit(then_)?;
                if let Some(e) = else_ {
                    self.visit(e)?;
                }
                Ok(())
            }
            Stmt::While { body, .. } => self.visit(body),
            Stmt::For { init, body, .. } => {
                if let Some(i) = init {
                    self.visit(i)?;
                }
                self.visit(body)
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4r_lang::creact::parse_body;

    #[test]
    fn assigns_slots_in_encounter_order() {
        let body = parse_body(
            "static int a = 1; if (a) { static int b = 2; } \
             while (a) { static int c[4]; static int a = 9; }",
        )
        .unwrap();
        let slots = ReactionSlots::collect(&body).unwrap();
        assert_eq!(slots.names(), ["a", "b", "c"]);
        assert_eq!(slots.slot("a"), Some(0));
        assert_eq!(slots.slot("b"), Some(1));
        assert_eq!(slots.slot("c"), Some(2));
        assert_eq!(slots.slot("nope"), None);
        assert_eq!(slots.len(), 3);
        assert_eq!(slots.declarations(0), 2, "`a` is declared twice");
        assert_eq!(slots.declarations(1), 1);
        assert_eq!(slots.declarations(3), 0);
    }

    #[test]
    fn non_statics_get_no_slot() {
        let body = parse_body("int x = 1; for (int i = 0; i < 3; i++) { x += i; }").unwrap();
        let slots = ReactionSlots::collect(&body).unwrap();
        assert!(slots.is_empty());
    }

    #[test]
    fn for_init_statics_are_collected() {
        let body = parse_body("for (static int i = 0; i < 3; i++) { }").unwrap();
        let slots = ReactionSlots::collect(&body).unwrap();
        assert_eq!(slots.slot("i"), Some(0));
    }
}
