"""The one exception type for limits.

Every limit is a module constant that the code reads when it is called
(`group.DEFAULT_ORDER_CAP`, `enumeration.DEFAULT_ENUM_CAP`,
`schurity.DEFAULT_NODE_BUDGET`, `permaction.CHAIN_BUDGET`), or a
`time_limit=` deadline.  All of them raise BudgetExceeded, which `verify`
records as a `budget` claim and the CLI turns into exit code 2.
"""


class BudgetExceeded(Exception):
    """A size cap, node budget or time limit stopped the computation."""
