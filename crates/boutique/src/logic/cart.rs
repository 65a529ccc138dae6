//! Cart storage logic.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use parking_lot::RwLock;
use weaver_macros::WeaverData;

use crate::logic::audit::{AuditEvent, AuditLog};
use crate::types::CartItem;

/// One user's cart as it travels inside a migration state blob
/// ([`CartStore::export_range`] → wire → [`CartStore::import_entries`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, WeaverData)]
pub struct CartRecord {
    /// The cart's owner.
    pub user: String,
    /// The cart contents.
    pub items: Vec<CartItem>,
}

/// In-memory per-user carts.
///
/// The cart component is the boutique's *routed* component: calls for the
/// same user hash to the same replica, so this per-replica store behaves
/// like a cache with perfect affinity (§5.2). Without routing, a user's
/// cart would be scattered across replicas.
#[derive(Debug, Default)]
pub struct CartStore {
    carts: RwLock<HashMap<String, Vec<CartItem>>>,
}

impl CartStore {
    /// Creates an empty store.
    pub fn new() -> CartStore {
        CartStore::default()
    }

    /// Adds an item, merging quantities of the same product.
    pub fn add_item(&self, user_id: &str, item: CartItem) {
        if item.quantity == 0 {
            return;
        }
        let mut carts = self.carts.write();
        let cart = carts.entry(user_id.to_string()).or_default();
        match cart.iter_mut().find(|i| i.product_id == item.product_id) {
            Some(existing) => existing.quantity = existing.quantity.saturating_add(item.quantity),
            None => cart.push(item),
        }
    }

    /// The user's cart (empty if none).
    pub fn get_cart(&self, user_id: &str) -> Vec<CartItem> {
        self.carts.read().get(user_id).cloned().unwrap_or_default()
    }

    /// Empties the user's cart.
    pub fn empty_cart(&self, user_id: &str) {
        self.carts.write().remove(user_id);
    }

    /// Number of users with non-empty carts (diagnostics/affinity metrics).
    pub fn user_count(&self) -> usize {
        self.carts.read().len()
    }

    /// Removes and returns every cart whose `routing_key(user)` falls in
    /// `[start, end)` (`end == u64::MAX` inclusive, slice semantics) — the
    /// source half of a slice migration. Take semantics on purpose: a
    /// moved-out cart lingering on the old owner would resurrect stale
    /// state if the range ever moved back.
    pub fn export_range(&self, start: u64, end: u64) -> Vec<CartRecord> {
        let mut carts = self.carts.write();
        let users: Vec<String> = carts
            .keys()
            .filter(|u| weaver_transport::in_slice(start, end, weaver_core::routing_key(*u)))
            .cloned()
            .collect();
        users
            .into_iter()
            .map(|user| {
                let items = carts.remove(&user).unwrap_or_default();
                CartRecord { user, items }
            })
            .collect()
    }

    /// Absorbs exported carts — the target half of a migration. Items merge
    /// through [`CartStore::add_item`] semantics, so importing onto a
    /// replica that somehow already saw the user is additive, not lossy.
    /// Returns how many carts were absorbed.
    pub fn import_entries(&self, records: Vec<CartRecord>) -> u64 {
        let mut imported = 0u64;
        for record in records {
            imported += 1;
            for item in record.items {
                self.add_item(&record.user, item);
            }
        }
        imported
    }
}

/// One journaled cart-emptying.
#[derive(Debug, Clone)]
struct JournalEntry {
    user: String,
    items: Vec<CartItem>,
    restored: bool,
}

fn journal() -> &'static Mutex<HashMap<String, JournalEntry>> {
    static JOURNAL: OnceLock<Mutex<HashMap<String, JournalEntry>>> = OnceLock::new();
    JOURNAL.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A keyed journal of cart emptyings — process-global, modeling the
/// durable journal a real cart service would keep next to its store.
///
/// Emptying a cart destroys state, which makes it unsafe to retry or
/// compensate without a record of what was destroyed. The journal gives
/// both: `empty_cart_keyed` is idempotent per key (a replayed empty does
/// nothing and destroys nothing) and remembers the removed items so
/// `restore_cart` can undo it — also idempotently, and as a no-op when
/// the emptying never actually happened.
pub struct CartJournal;

impl CartJournal {
    /// Empties `user`'s cart in `store` under `key`. The first call
    /// journals the removed items and audits `CartEmptied`; repeats are
    /// no-ops.
    pub fn empty_cart_keyed(store: &CartStore, user: &str, key: &str) {
        let mut journal = journal().lock().unwrap_or_else(|e| e.into_inner());
        if journal.contains_key(key) {
            return;
        }
        let items = store.get_cart(user);
        store.empty_cart(user);
        journal.insert(
            key.to_string(),
            JournalEntry {
                user: user.to_string(),
                items,
                restored: false,
            },
        );
        AuditLog::record(AuditEvent::CartEmptied {
            key: key.to_string(),
            user: user.to_string(),
        });
    }

    /// Restores the cart emptied under `key` into `store`. Idempotent;
    /// a no-op (recording nothing) when no emptying was journaled — the
    /// forward step may never have executed.
    pub fn restore_cart(store: &CartStore, user: &str, key: &str) {
        let mut journal = journal().lock().unwrap_or_else(|e| e.into_inner());
        let Some(entry) = journal.get_mut(key) else {
            return;
        };
        if entry.restored {
            return;
        }
        entry.restored = true;
        for item in entry.items.clone() {
            store.add_item(user, item);
        }
        AuditLog::record(AuditEvent::CartRestored {
            key: key.to_string(),
            user: entry.user.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(product: &str, quantity: u32) -> CartItem {
        CartItem {
            product_id: product.into(),
            quantity,
        }
    }

    #[test]
    fn add_and_get() {
        let store = CartStore::new();
        store.add_item("alice", item("P1", 2));
        store.add_item("alice", item("P2", 1));
        let cart = store.get_cart("alice");
        assert_eq!(cart.len(), 2);
        assert!(store.get_cart("bob").is_empty());
    }

    #[test]
    fn quantities_merge() {
        let store = CartStore::new();
        store.add_item("alice", item("P1", 2));
        store.add_item("alice", item("P1", 3));
        assert_eq!(store.get_cart("alice"), vec![item("P1", 5)]);
    }

    #[test]
    fn zero_quantity_ignored() {
        let store = CartStore::new();
        store.add_item("alice", item("P1", 0));
        assert!(store.get_cart("alice").is_empty());
    }

    #[test]
    fn quantity_saturates() {
        let store = CartStore::new();
        store.add_item("alice", item("P1", u32::MAX));
        store.add_item("alice", item("P1", 5));
        assert_eq!(store.get_cart("alice")[0].quantity, u32::MAX);
    }

    #[test]
    fn empty_cart() {
        let store = CartStore::new();
        store.add_item("alice", item("P1", 1));
        store.empty_cart("alice");
        assert!(store.get_cart("alice").is_empty());
        assert_eq!(store.user_count(), 0);
        // Emptying a missing cart is a no-op.
        store.empty_cart("nobody");
    }

    #[test]
    fn keyed_empty_is_idempotent_and_journals_once() {
        let store = CartStore::new();
        store.add_item("journal-user", item("P1", 2));
        let mark = AuditLog::mark();
        CartJournal::empty_cart_keyed(&store, "journal-user", "cj-test-empty");
        assert!(store.get_cart("journal-user").is_empty());
        // A replay after the user refilled the cart must not empty again.
        store.add_item("journal-user", item("P2", 1));
        CartJournal::empty_cart_keyed(&store, "journal-user", "cj-test-empty");
        assert_eq!(store.get_cart("journal-user"), vec![item("P2", 1)]);
        let emptied = AuditLog::since(mark)
            .into_iter()
            .filter(|e| matches!(e, AuditEvent::CartEmptied { key, .. } if key == "cj-test-empty"))
            .count();
        assert_eq!(emptied, 1);
    }

    #[test]
    fn restore_undoes_a_journaled_empty_idempotently() {
        let store = CartStore::new();
        store.add_item("restore-user", item("P1", 3));
        CartJournal::empty_cart_keyed(&store, "restore-user", "cj-test-restore");
        let mark = AuditLog::mark();
        CartJournal::restore_cart(&store, "restore-user", "cj-test-restore");
        assert_eq!(store.get_cart("restore-user"), vec![item("P1", 3)]);
        // Replayed restore must not double the items.
        CartJournal::restore_cart(&store, "restore-user", "cj-test-restore");
        assert_eq!(store.get_cart("restore-user"), vec![item("P1", 3)]);
        let restored = AuditLog::since(mark)
            .into_iter()
            .filter(
                |e| matches!(e, AuditEvent::CartRestored { key, .. } if key == "cj-test-restore"),
            )
            .count();
        assert_eq!(restored, 1);
    }

    #[test]
    fn restore_of_a_never_journaled_key_is_a_noop() {
        let store = CartStore::new();
        let mark = AuditLog::mark();
        CartJournal::restore_cart(&store, "ghost-user", "cj-test-ghost");
        assert!(store.get_cart("ghost-user").is_empty());
        assert!(!AuditLog::since(mark)
            .iter()
            .any(|e| matches!(e, AuditEvent::CartRestored { key, .. } if key == "cj-test-ghost")));
    }

    #[test]
    fn export_takes_and_import_restores() {
        let store = CartStore::new();
        store.add_item("alice", item("P1", 2));
        store.add_item("bob", item("P2", 3));
        // The full keyspace exports everything — and removes it.
        let records = store.export_range(0, u64::MAX);
        assert_eq!(records.len(), 2);
        assert_eq!(store.user_count(), 0);
        let target = CartStore::new();
        assert_eq!(target.import_entries(records), 2);
        assert_eq!(target.get_cart("alice"), vec![item("P1", 2)]);
        assert_eq!(target.get_cart("bob"), vec![item("P2", 3)]);
    }

    #[test]
    fn export_respects_the_range() {
        let store = CartStore::new();
        store.add_item("alice", item("P1", 1));
        store.add_item("bob", item("P2", 1));
        let alice_hash = weaver_core::routing_key("alice");
        // A range containing only alice's hash moves only alice.
        let records = store.export_range(alice_hash, alice_hash.saturating_add(1));
        let users: Vec<&str> = records.iter().map(|r| r.user.as_str()).collect();
        assert_eq!(users, vec!["alice"]);
        assert_eq!(store.get_cart("bob"), vec![item("P2", 1)]);
        assert!(store.get_cart("alice").is_empty());
    }

    #[test]
    fn users_are_isolated() {
        let store = CartStore::new();
        store.add_item("alice", item("P1", 1));
        store.add_item("bob", item("P2", 9));
        assert_eq!(store.get_cart("alice"), vec![item("P1", 1)]);
        assert_eq!(store.get_cart("bob"), vec![item("P2", 9)]);
        assert_eq!(store.user_count(), 2);
    }
}
