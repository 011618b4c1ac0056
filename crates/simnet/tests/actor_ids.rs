//! The actor-id codec of `ovcomm_simnet::trace`: what `op_actor_id` packs,
//! `rank_of_actor` and `actor_name` unpack, at the bounds of both fields,
//! and the two range checks' messages (`benchmark/README.md` quotes the
//! 16,384-operation one).

use ovcomm_simnet::{actor_name, op_actor_id, rank_of_actor};

#[test]
fn actor_ids_round_trip_at_the_bounds() {
    for (rank, op) in [(0, 0), (0, 16_383), (131_071, 0), (131_071, 16_383)] {
        let id = op_actor_id(rank, op);
        assert!(id > 131_071, "op ids never collide with rank ids");
        assert_eq!(rank_of_actor(id), rank);
        assert_eq!(actor_name(id), format!("rank {rank} op {op}"));
    }
    assert_eq!(rank_of_actor(131_071), 131_071);
    assert_eq!(actor_name(7), "rank 7");

    let panic_of = |f: fn() -> u32| {
        let payload = std::panic::catch_unwind(f).expect_err("out of range");
        *payload.downcast::<String>().expect("formatted message")
    };
    assert_eq!(
        panic_of(|| op_actor_id(1 << 17, 0)),
        "rank 131072 too large for op-actor encoding"
    );
    assert_eq!(
        panic_of(|| op_actor_id(3, 1 << 14)),
        "rank 3 posted more than 16384 nonblocking operations in one run"
    );
}
