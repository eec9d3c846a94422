//! Every result of the paper the workspace reproduces, regenerated and
//! checked against the paper's bound: the rows `paper_claims` prints.

#[test]
fn every_paper_claim_holds() {
    for &(name, check) in bench::CLAIMS {
        println!("{name}");
        check();
    }
}
