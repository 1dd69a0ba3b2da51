//! The instruction-interception table.
//!
//! "Our implementation allows intercepting any instruction with an
//! mroutine. For instance, developers can intercept loads and stores
//! dynamically to implement transactional memory or patch an insecure
//! instruction at runtime." (paper §2.3)
//!
//! Rules are programmed with the `mintercept` instruction:
//! `rs1` = an [`InterceptSelector`] word, `rs2` = `(entry << 1) | enable`.

use metal_isa::metal::InterceptSelector;

/// One interception rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterceptRule {
    /// Which instructions it matches.
    pub selector: InterceptSelector,
    /// The mroutine that handles matches.
    pub entry: u8,
}

/// A fixed-capacity interception table (a small CAM in hardware).
#[derive(Clone, Debug)]
pub struct InterceptTable {
    rules: Vec<Option<InterceptRule>>,
}

/// Default number of rule slots (each slot is a comparator in hardware,
/// so the table is small).
pub const DEFAULT_SLOTS: usize = 8;

impl InterceptTable {
    /// An empty table with `DEFAULT_SLOTS` (8) slots.
    #[must_use]
    pub fn new() -> InterceptTable {
        InterceptTable::with_slots(DEFAULT_SLOTS)
    }

    /// An empty table with `slots` slots.
    #[must_use]
    pub fn with_slots(slots: usize) -> InterceptTable {
        InterceptTable {
            rules: vec![None; slots],
        }
    }

    /// Programs the table from `mintercept` operands. Enabling installs
    /// or updates the rule for `selector`; disabling removes it.
    /// Returns `false` if the table is full.
    pub fn program(&mut self, selector_word: u32, target: u32) -> bool {
        let selector = InterceptSelector::decode(selector_word);
        let enable = target & 1 != 0;
        let entry = ((target >> 1) & 0x3F) as u8;
        // Update or remove an existing rule for this selector.
        for slot in &mut self.rules {
            if slot.is_some_and(|r| r.selector == selector) {
                *slot = enable.then_some(InterceptRule { selector, entry });
                return true;
            }
        }
        if !enable {
            return true; // disabling a non-existent rule is a no-op
        }
        for slot in &mut self.rules {
            if slot.is_none() {
                *slot = Some(InterceptRule { selector, entry });
                return true;
            }
        }
        false
    }

    /// Returns the handling entry for an instruction word, if any rule
    /// matches. The first matching slot wins.
    #[must_use]
    pub fn lookup(&self, insn_word: u32) -> Option<u8> {
        self.rules
            .iter()
            .flatten()
            .find(|r| r.selector.matches(insn_word))
            .map(|r| r.entry)
    }

    /// Number of active rules.
    #[must_use]
    pub fn active(&self) -> usize {
        self.rules.iter().flatten().count()
    }

    /// Removes every rule.
    pub fn clear(&mut self) {
        self.rules.fill(None);
    }
}

impl Default for InterceptTable {
    fn default() -> InterceptTable {
        InterceptTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_isa::encode::opcodes;

    fn load_class() -> u32 {
        InterceptSelector::OpcodeClass {
            opcode: opcodes::LOAD,
        }
        .encode()
    }

    fn store_class() -> u32 {
        InterceptSelector::OpcodeClass {
            opcode: opcodes::STORE,
        }
        .encode()
    }

    #[test]
    fn program_and_lookup() {
        let mut t = InterceptTable::new();
        assert!(t.program(load_class(), (5 << 1) | 1));
        // lw a0, 0(a1)
        assert_eq!(t.lookup(0x0005_A503), Some(5));
        // sw not intercepted.
        assert_eq!(t.lookup(0x00A5_A023), None);
        assert_eq!(t.active(), 1);
    }

    #[test]
    fn disable_removes_rule() {
        let mut t = InterceptTable::new();
        t.program(load_class(), (5 << 1) | 1);
        t.program(load_class(), 0);
        assert_eq!(t.lookup(0x0005_A503), None);
        assert_eq!(t.active(), 0);
        // Disabling again is a no-op.
        assert!(t.program(load_class(), 0));
    }

    #[test]
    fn update_in_place() {
        let mut t = InterceptTable::new();
        t.program(load_class(), (5 << 1) | 1);
        t.program(load_class(), (9 << 1) | 1);
        assert_eq!(t.lookup(0x0005_A503), Some(9));
        assert_eq!(t.active(), 1);
    }

    #[test]
    fn table_capacity() {
        let mut t = InterceptTable::with_slots(2);
        assert!(t.program(load_class(), (1 << 1) | 1));
        assert!(t.program(store_class(), (2 << 1) | 1));
        let third = InterceptSelector::OpcodeClass { opcode: 0x33 }.encode();
        assert!(!t.program(third, (3 << 1) | 1), "table full");
        t.clear();
        assert!(t.program(third, (3 << 1) | 1));
    }

    #[test]
    fn exact_rule_matches_only_variant() {
        let mut t = InterceptTable::new();
        let lw_only = InterceptSelector::Exact {
            opcode: opcodes::LOAD,
            funct3: 0b010,
            funct7: None,
        }
        .encode();
        t.program(lw_only, (7 << 1) | 1);
        assert_eq!(t.lookup(0x0005_A503), Some(7)); // lw
        assert_eq!(t.lookup(0x0005_8503), None); // lb
    }
}
