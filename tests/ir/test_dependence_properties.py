"""Property-based tests for the dependence analysis."""

from hypothesis import given, settings, strategies as st

from repro.ir import carrying_loops, fusion_legal, interchange_legal, parse_labeled_source


class TestExhaustiveConsistency:
    @settings(max_examples=25, deadline=None)
    @given(shift=st.integers(-2, 2))
    def test_shift_stream_direction(self, shift):
        """A[i] = A[i+shift] carries a dependence iff shift != 0, and a
        second loop reading A[i+shift] may fuse with the loop writing
        A[i] iff it reads behind (shift <= 0)."""
        (loop,) = parse_labeled_source(
            f"L: for (i = 2; i < 6; i++) A[i][0] = A[i+{shift}][0];"
        )
        assert bool(carrying_loops(loop)) == (shift != 0)
        producer, consumer = parse_labeled_source(
            f"""
            L1: for (i = 2; i < 6; i++)
                  A[i][0] = X[i][0];
            L2: for (i = 2; i < 6; i++)
                  Y[i][0] = A[i+{shift}][0];
            """
        )
        assert fusion_legal(producer, consumer) == (shift <= 0)

    @settings(max_examples=15, deadline=None)
    @given(size=st.integers(3, 8))
    def test_reduction_always_carried(self, size):
        (loop,) = parse_labeled_source(f"L: for (i = 0; i < {size}; i++) S[0][0] += A[i][0];")
        assert carrying_loops(loop) == {loop}

    def test_directions_projectable(self):
        """The flow A[i][j-1] -> A[i][j] has direction (=, <): j carries
        it, i does not, and the two loops may swap."""
        (nest,) = parse_labeled_source(
            """
            Li: for (i = 0; i < M; i++)
            Lj:   for (j = 1; j < N; j++)
                    A[i][j] = A[i][j-1];
            """
        )
        assert carrying_loops(nest) == set(nest.body)
        assert interchange_legal(nest)
