"""Exception types shared across the toolkit."""


class HqsError(Exception):
    """Base class for all toolkit errors."""


class MalformedInput(HqsError):
    """An input file has the wrong shape; the message names the field path."""


class EmptyQuorum(HqsError):
    """A declared quorum is the empty set."""


class EmptyDeclaration(HqsError):
    """A well-behaved active process declared no quorums."""


class UnknownMember(HqsError):
    """A quorum member lies outside the universe."""


class UnknownProcess(HqsError):
    """An operation referenced a process with no declaration."""


class PreconditionViolated(HqsError):
    """A reconfiguration operation is ill-formed against the current system."""


class BadSubset(HqsError):
    """A process set violates the well-behaved-subset precondition of a checker."""


class PreconditionNotVerified(HqsError):
    """A lemma oracle could not verify its consistency/sharing precondition."""


class ForgedSender(HqsError):
    """An attempt to send on behalf of a well-behaved process by someone else."""


class ForgedSigner(HqsError):
    """An attempt to sign on behalf of a well-behaved process by someone else."""


class DuplicateInstance(HqsError):
    """A broadcast instance was started twice for the same sender."""


class ScenarioError(HqsError):
    """A scenario file is malformed or references unknown entities."""
