"""The claim table through which a split sweep's processes share oracle
answers, asked from one process that plays two ranks in turn."""

from countkernel import parallel


def claims(workers: int = 2) -> parallel._Claims:
    return parallel._Claims(1, workers, lambda claimant: None)


def test_a_claimed_answer_is_read_by_another_rank_and_never_recomputed():
    table = claims()
    try:
        keys = [(n, frozenset({(0, n), (1, n + 1)}), None) for n in range(2, 2000)]
        assert [table.ask(0, key, lambda n=key[0]: n * n) for key in keys] == [
            n * n for n in range(2, 2000)]
        table.flush()
        table.serve(1, lambda claimant: None)
        # Equal keys, their sets built in another order, find the published answers.
        again = [(n, frozenset({(1, n + 1), (0, n)}), None) for n in range(2, 2000)]
        assert [table.ask(0, key, lambda: 1 / 0) for key in again] == [
            n * n for n in range(2, 2000)]
        # The same key in another table is another key.
        assert table.ask(1, keys[0], lambda: "other") == "other"
    finally:
        table.close()


def test_a_full_table_leaves_new_keys_unshared():
    table = claims()
    try:
        asked = []

        def compute(n):
            asked.append(n)
            return n

        for n in range(table.slots):
            assert table.ask(0, (n,), lambda n=n: compute(n)) == n
        table.flush()
        table.serve(1, lambda claimant: None)
        shared = table.slots * 3 // 4
        for n in range(table.slots):
            assert table.ask(0, (n,), lambda n=n: compute(n)) == n
        # The first three quarters were claimed and are read; the rest are computed again.
        assert asked == list(range(table.slots)) + list(range(shared, table.slots))
    finally:
        table.close()


def test_an_answer_without_room_or_a_refusal_is_computed_again_by_its_next_asker():
    table = claims()
    try:
        big = bytes(table.region)
        assert table.ask(0, ("big",), lambda: big) == big

        def refuse():
            raise ValueError("refused")

        try:
            table.ask(0, ("refused",), refuse)
        except ValueError:
            pass
        table.flush()
        table.serve(1, lambda claimant: None)
        assert table.ask(0, ("big",), lambda: "computed again") == "computed again"
        assert table.ask(0, ("refused",), lambda: "asked again") == "asked again"
    finally:
        table.close()
